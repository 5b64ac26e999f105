// DRAM timing parameter sets.
//
// All parameters are in device clock cycles (tCK), the way JEDEC
// datasheets specify them; tck_ps anchors them to wall-clock time.
// Presets cover the configurations the paper's experiments need:
// DDR3-1600 (Ambit/RowClone substrate), DDR3-2133 / DDR4-2400 (host
// baselines), and an HMC-like stacked vault.
#ifndef PIM_DRAM_TIMING_H
#define PIM_DRAM_TIMING_H

#include <string>

#include "common/types.h"

namespace pim::dram {

struct timing_params {
  std::string name;

  picoseconds tck_ps = 1250;  // clock period

  // Row commands.
  int trcd = 11;  // ACT -> column command
  int trp = 11;   // PRE -> ACT
  int tras = 28;  // ACT -> PRE
  // Column commands.
  int tcl = 11;   // RD -> first data
  int tcwl = 8;   // WR -> first data
  int tbl = 4;    // burst length on the bus (BL8 / 2 for DDR)
  int tccd = 4;   // column command -> column command
  int trtp = 6;   // RD -> PRE
  int twr = 12;   // end of write burst -> PRE
  int twtr = 6;   // end of write burst -> RD
  // Inter-bank.
  int trrd = 5;   // ACT -> ACT, different banks
  int tfaw = 24;  // window for at most 4 ACTs per rank
  // Refresh.
  int trfc = 208;    // REF -> next command
  int trefi = 6240;  // average interval between REFs

  // In-DRAM compute extensions (RowClone / Ambit).
  //
  // The second ACT of an activate-activate copy can be issued once the
  // source row is fully restored (tRAS). With Ambit's optimized AAP the
  // destination row is driven by already-settled sense amplifiers, so
  // precharge can follow immediately (t_extra_act = 0; one AAP = tRAS +
  // tRP, ~49 ns on DDR3-1600). RowClone's published conservative FPM
  // timing instead waits a full restoration window before precharge
  // (command.conservative selects this, ~2x tRAS + tRP, ~84 ns).
  int t_copy_act = 28;  // ACT -> copy-ACT, same bank (= tRAS)
  int t_extra_act = 0;  // copy-ACT -> PRE (optimized AAP)

  int trc() const { return tras + trp; }

  /// Data-bus peak bandwidth in GB/s for a 64-bit channel: two
  /// transfers per clock (DDR), 8 bytes per transfer.
  double channel_peak_gbps() const {
    return 16.0 * 1e3 / static_cast<double>(tck_ps);
  }
};

/// DDR3-1600 (tCK = 1.25 ns), the Ambit and RowClone substrate.
timing_params ddr3_1600();

/// DDR3-2133, a faster variant used for sensitivity studies.
timing_params ddr3_2133();

/// DDR4-2400, the host-system channel for the consumer workloads.
timing_params ddr4_2400();

/// An HMC-like stacked DRAM vault: faster arrays, smaller rows, and
/// timing scaled to the published HMC access characteristics.
timing_params hmc_vault();

}  // namespace pim::dram

#endif  // PIM_DRAM_TIMING_H
