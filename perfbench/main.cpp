// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <offload_mix|wire_rw|scan_query> --seed <n>
//             --seconds <s> --trace <0|1> [--out <dir>]
//
// Prints notes, then one JSON line: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics; --trace 1 runs
// the separate traced run and reports the per-layer metrics.
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "harness.h"

namespace {

perfbench::options parse(int argc, char** argv) {
  perfbench::options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
    } else if (key == "--seconds") {
      opt.seconds = std::stoi(value);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--out") {
      opt.out_dir = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (argc % 2 == 0) throw std::invalid_argument("option without a value");
  if (opt.seconds < 1) throw std::invalid_argument("--seconds must be >= 1");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const perfbench::options opt = parse(argc, argv);
    perfbench::report r;
    if (opt.workload == "offload_mix") {
      r = perfbench::run_offload_mix(opt);
    } else if (opt.workload == "wire_rw") {
      r = perfbench::run_wire_rw(opt);
    } else if (opt.workload == "scan_query") {
      r = perfbench::run_scan_query(opt);
    } else {
      throw std::invalid_argument("unknown workload '" + opt.workload + "'");
    }
    r.print();
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
