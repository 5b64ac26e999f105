// DRAM command set, including the in-DRAM compute extensions.
#ifndef PIM_DRAM_COMMAND_H
#define PIM_DRAM_COMMAND_H

#include <string>

#include "dram/address.h"

namespace pim::dram {

enum class command_kind {
  activate,   // open a row into the sense amplifiers
  precharge,  // close the open row
  read,       // transfer one column to the channel
  write,      // transfer one column from the channel
  refresh,    // all-bank refresh
  // --- in-DRAM compute extensions -------------------------------------
  // Second activation while a row's data is latched in the sense
  // amplifiers; copies the latched data into the newly-activated row
  // (RowClone-FPM and the second ACT of Ambit's AAP primitive).
  copy_activate,
  // Simultaneous activation of the three designated B-group rows of a
  // subarray; charge sharing computes bitwise majority (Ambit TRA).
  triple_activate,
};

std::string to_string(command_kind kind);

/// One command on a channel's command bus.
struct command {
  command_kind kind = command_kind::activate;
  address addr;  // row/column fields used as the kind requires

  /// True for commands issued by a bulk in-DRAM operation engine
  /// (RowClone/Ambit). Bulk activations draw no channel I/O power and
  /// are provisioned for concurrent bank operation, so the controller
  /// may exempt them from the tRRD/tFAW power-delivery constraints
  /// (see timing_checker; exposed as an ablation).
  bool bulk = false;

  /// For copy_activate: wait a full restoration window (tRAS) before
  /// the following precharge. RowClone's published FPM timing is
  /// conservative (~90 ns per copy); Ambit's AAP overlaps destination
  /// restoration with precharge (~tRAS + tRP total). Engines choose.
  bool conservative = false;

  bool operator==(const command&) const = default;
};

}  // namespace pim::dram

#endif  // PIM_DRAM_COMMAND_H
