// Offload decision model (the paper's adoption challenge #1/#2): given
// a kernel's compute intensity and locality, estimate whether it runs
// better on the host or on PIM logic — the decision a runtime or
// compiler (TOM-style) makes per candidate function.
#ifndef PIM_CORE_OFFLOAD_H
#define PIM_CORE_OFFLOAD_H

#include <string>

#include "common/types.h"

namespace pim::core {

/// Static profile of a candidate kernel.
struct kernel_profile {
  std::string name;
  std::uint64_t instructions = 0;
  bytes memory_traffic = 0;  // DRAM-visible bytes on the host
  /// Fraction of traffic that hits host caches (reuse PIM would lose).
  double host_cache_hit = 0.0;
};

struct offload_decision {
  bool offload = false;
  picoseconds host_time = 0;
  picoseconds pim_time = 0;
  picojoules host_energy = 0;
  picojoules pim_energy = 0;
  double speedup = 0;          // host_time / pim_time
  double energy_ratio = 0;     // pim_energy / host_energy
};

/// Roofline-based decision on the modeled host and stack (constants in
/// offload.cpp): offload when PIM wins on both time and energy (the
/// conservative policy the consumer-workloads study uses).
offload_decision decide(const kernel_profile& kernel);

}  // namespace pim::core

#endif  // PIM_CORE_OFFLOAD_H
