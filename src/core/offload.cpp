#include "core/offload.h"

#include <algorithm>

namespace pim::core {

namespace {

constexpr double host_gips = 19.2;       // host giga-instructions/s
constexpr double host_bw_gbps = 12.8;    // host DRAM bandwidth
constexpr double pim_gips = 24.0;        // aggregate PIM-core instruction rate
constexpr double pim_bw_gbps = 160.0;    // internal stack bandwidth
constexpr double host_pj_per_byte = 45;  // energy per DRAM byte on the host
constexpr double pim_pj_per_byte = 12;   // energy per byte through TSVs
constexpr double pj_per_instruction = 3.0;

}  // namespace

offload_decision decide(const kernel_profile& kernel) {
  offload_decision d;
  const double instr = static_cast<double>(kernel.instructions);
  const double host_traffic = static_cast<double>(kernel.memory_traffic);
  // PIM has no deep cache hierarchy: reuse the host captured becomes
  // stack traffic.
  const double pim_traffic = host_traffic / (1.0 - std::min(
      kernel.host_cache_hit, 0.99));

  const double host_compute_ns = instr / host_gips;
  const double host_mem_ns = host_traffic / host_bw_gbps;
  d.host_time = static_cast<picoseconds>(
      std::max(host_compute_ns, host_mem_ns) * 1e3);

  const double pim_compute_ns = instr / pim_gips;
  const double pim_mem_ns = pim_traffic / pim_bw_gbps;
  d.pim_time = static_cast<picoseconds>(
      std::max(pim_compute_ns, pim_mem_ns) * 1e3);

  d.host_energy = instr * pj_per_instruction +
                  host_traffic * host_pj_per_byte;
  d.pim_energy = instr * pj_per_instruction +
                 pim_traffic * pim_pj_per_byte;

  d.speedup = d.pim_time == 0
                  ? 0.0
                  : static_cast<double>(d.host_time) /
                        static_cast<double>(d.pim_time);
  d.energy_ratio =
      d.host_energy == 0 ? 0.0 : d.pim_energy / d.host_energy;
  d.offload = d.speedup >= 1.0 && d.energy_ratio <= 1.0;
  return d;
}

}  // namespace pim::core
