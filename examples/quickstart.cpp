// Quickstart: allocate bulk bit vectors in simulated DRAM, run an
// in-memory AND via Ambit's triple-row activation, and compare against
// reading the data out over the memory channel.
//
//   $ ./examples/quickstart
#include <iostream>

#include "core/pim_system.h"

int main() {
  using namespace pim;

  // A single-channel DDR3-1600 module with Ambit-enabled subarrays.
  core::pim_system sys;

  // Three co-located 4 Mib vectors: two operands and a destination.
  const bits size = 4u * 1024 * 1024;
  auto vecs = sys.allocate(size, 3);

  rng gen(7);
  const bitvector a = bitvector::random(size, gen);
  const bitvector b = bitvector::random(size, gen);
  sys.write(vecs[0], a);
  sys.write(vecs[1], b);

  // d = a AND b, computed entirely inside the DRAM arrays.
  const core::op_report r =
      sys.execute(dram::bulk_op::and_op, vecs[0], &vecs[1], vecs[2]);

  const bool correct = sys.read(vecs[2]) == (a & b);
  std::cout << "computed " << size << "-bit AND in "
            << ps_to_ns(r.latency) / 1000.0 << " us\n"
            << "  in-DRAM throughput: " << r.throughput_gbps << " GB/s\n"
            << "  command-stream energy: " << r.energy / 1e6 << " uJ\n"
            << "  result correct: " << std::boolalpha << correct << "\n";

  // The same data pulled over the channel would move 3x the vector
  // size at ~12.8 GB/s — the data-movement cost PIM avoids.
  const double channel_us =
      3.0 * static_cast<double>(size / 8) / 12.8 / 1e3;
  std::cout << "  channel-bound estimate: " << channel_us << " us ("
            << channel_us / (ps_to_ns(r.latency) / 1000.0)
            << "x slower)\n";
  return correct ? 0 : 1;
}
