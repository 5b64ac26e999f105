// E1 + E2: bulk bitwise throughput of Ambit vs. Skylake-class CPU,
// GTX-745-class GPU, and the HMC 2.0 logic layer (paper: 44x, 32x,
// and 9.7x respectively), with a cycle-level cross-check and two
// ablations (decoder richness, bulk tFAW exemption).
#include <iostream>

#include "analytic/models.h"
#include "common/json_writer.h"
#include "common/table.h"
#include "dram/memory_system.h"

namespace {

using namespace pim;

double simulated_throughput(dram::bulk_op op, bool power_exempt) {
  dram::organization org;
  org.channels = 1;
  org.ranks = 1;
  org.banks = 8;
  org.subarrays = 8;
  org.rows = 1024;
  org.columns = 128;  // 8 KiB rows
  dram::memory_system mem(org, dram::ddr3_1600(), power_exempt);
  dram::ambit_allocator alloc(org);
  dram::ambit_engine engine(mem);
  const int rows_per_bank = 4;
  const bits size = org.row_bits() * 8 * rows_per_bank;
  auto group = alloc.allocate_group(size, 3);
  const cycles before = mem.now_cycles();
  engine.execute(op, group[0], dram::is_unary(op) ? nullptr : &group[1],
                 group[2]);
  mem.drain();
  const double elapsed_ps = static_cast<double>(
      (mem.now_cycles() - before) * dram::ddr3_1600().tck_ps);
  return static_cast<double>(size / 8) / elapsed_ps * 1e3;
}

}  // namespace

int main() {
  using namespace pim;
  using namespace pim::analytic;

  std::cout << "=== E1: Bulk bitwise throughput (GB/s of output), 32 MB "
               "vectors ===\n\n";
  const streaming_device cpu = skylake_cpu();
  const streaming_device gpu = gtx745_gpu();
  const ambit_device ambit = ambit_ddr3(8);

  table t({"op", cpu.name, gpu.name, ambit.name, "vs CPU", "vs GPU",
           "cycle-sim GB/s"});
  for (dram::bulk_op op : dram::all_bulk_ops()) {
    t.row()
        .cell(to_string(op))
        .cell(cpu.throughput_gbps(op))
        .cell(gpu.throughput_gbps(op))
        .cell(ambit.throughput_gbps(op))
        .cell(ambit.throughput_gbps(op) / cpu.throughput_gbps(op), 1)
        .cell(ambit.throughput_gbps(op) / gpu.throughput_gbps(op), 1)
        .cell(simulated_throughput(op, true));
  }
  t.print(std::cout);
  std::cout << "mean speedup vs Skylake: " << format_double(
                   mean_speedup(ambit, cpu), 1)
            << "x   (paper: 44x)\n";
  std::cout << "mean speedup vs GTX 745: " << format_double(
                   mean_speedup(ambit, gpu), 1)
            << "x   (paper: 32x)\n\n";

  std::cout << "=== E2: Ambit-in-HMC vs HMC 2.0 logic layer ===\n\n";
  const streaming_device logic = hmc_logic_layer();
  const ambit_device in_hmc = ambit_hmc();
  table t2({"op", logic.name, in_hmc.name, "speedup"});
  for (dram::bulk_op op : dram::all_bulk_ops()) {
    t2.row()
        .cell(to_string(op))
        .cell(logic.throughput_gbps(op))
        .cell(in_hmc.throughput_gbps(op))
        .cell(in_hmc.throughput_gbps(op) / logic.throughput_gbps(op), 1);
  }
  t2.print(std::cout);
  std::cout << "mean speedup: "
            << format_double(mean_speedup(in_hmc, logic), 1)
            << "x   (paper: 9.7x)\n\n";

  std::cout << "=== Ablation: bank count (AAP pipelining) ===\n\n";
  table t3({"banks", "AND GB/s", "mean speedup vs Skylake"});
  for (int banks : {1, 2, 4, 8, 16}) {
    const ambit_device d = ambit_ddr3(banks);
    t3.row()
        .cell(banks)
        .cell(d.throughput_gbps(dram::bulk_op::and_op))
        .cell(mean_speedup(d, cpu), 1);
  }
  t3.print(std::cout);

  std::cout << "=== Ablation: B-group decoder richness (XOR cost) ===\n\n";
  table t4({"decoder", "XOR steps", "XOR GB/s", "mean speedup vs Skylake"});
  for (bool rich : {true, false}) {
    const ambit_device d = ambit_ddr3(8, rich);
    t4.row()
        .cell(rich ? "full (paper)" : "minimal")
        .cell(d.step_count(dram::bulk_op::xor_op))
        .cell(d.throughput_gbps(dram::bulk_op::xor_op))
        .cell(mean_speedup(d, cpu), 1);
  }
  t4.print(std::cout);

  std::cout << "=== Ablation: tRRD/tFAW power constraints on bulk ACTs "
               "(cycle sim, AND) ===\n\n";
  table t5({"bulk ACT power constraints", "AND GB/s"});
  t5.row().cell("exempt (Ambit provisioning)").cell(
      simulated_throughput(dram::bulk_op::and_op, true));
  t5.row().cell("enforced (stock DDR3 budget)").cell(
      simulated_throughput(dram::bulk_op::and_op, false));
  t5.print(std::cout);

  // Machine-readable trajectory record.
  json_writer json;
  json.begin_object();
  json.key("bench").value("ambit_throughput");
  json.key("mean_speedup_vs_cpu").value(mean_speedup(ambit, cpu));
  json.key("mean_speedup_vs_gpu").value(mean_speedup(ambit, gpu));
  json.key("mean_speedup_hmc").value(mean_speedup(in_hmc, logic));
  json.key("ops").begin_array();
  for (dram::bulk_op op : dram::all_bulk_ops()) {
    json.begin_object();
    json.key("op").value(to_string(op));
    json.key("cpu_gbps").value(cpu.throughput_gbps(op));
    json.key("gpu_gbps").value(gpu.throughput_gbps(op));
    json.key("ambit_gbps").value(ambit.throughput_gbps(op));
    json.key("cycle_sim_gbps").value(simulated_throughput(op, true));
    json.end_object();
  }
  json.end_array();
  json.key("bulk_power_ablation").begin_object();
  json.key("exempt_and_gbps")
      .value(simulated_throughput(dram::bulk_op::and_op, true));
  json.key("enforced_and_gbps")
      .value(simulated_throughput(dram::bulk_op::and_op, false));
  json.end_object();
  json.end_object();
  json.write_file("BENCH_ambit_throughput.json");
  std::cout << "\nwrote BENCH_ambit_throughput.json\n";
  return 0;
}
