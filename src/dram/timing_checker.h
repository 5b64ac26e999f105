// Per-channel DRAM timing-constraint engine.
//
// Tracks, for every bank and rank, the earliest cycle at which each
// command kind may legally issue, following the standard JEDEC
// constraint structure (tRCD/tRAS/tRP per bank, tRRD/tFAW per rank,
// tCCD/tWTR/tRTP and data-bus occupancy per channel). The controller
// asks `earliest(cmd)` during scheduling and must call `issue(cmd, now)`
// exactly when it places the command on the bus.
#ifndef PIM_DRAM_TIMING_CHECKER_H
#define PIM_DRAM_TIMING_CHECKER_H

#include <deque>
#include <vector>

#include "common/types.h"
#include "dram/command.h"
#include "dram/organization.h"
#include "dram/timing.h"

namespace pim::dram {

/// Row-buffer status of one bank as the checker sees it.
enum class bank_status { precharged, active };

class timing_checker {
 public:
  timing_checker(const organization& org, const timing_params& timing,
                 bool bulk_power_exempt = true);

  /// Earliest cycle (inclusive) at which `cmd` may issue. Does not
  /// validate protocol state (e.g. activating an open bank); the
  /// controller owns that logic, `issue` asserts it.
  cycles earliest(const command& cmd) const;

  /// Records `cmd` as issued at cycle `now`, updating all constraint
  /// state. Throws std::logic_error on protocol violations (issuing
  /// before `earliest`, activating an active bank, ...). This makes the
  /// scheduler's correctness testable.
  void issue(const command& cmd, cycles now);

  bank_status status(int rank, int bank) const;
  /// Open row of an active bank; -1 when precharged. A bank opened by
  /// triple_activate reports the TRA row address given in the command.
  int open_row(int rank, int bank) const;

  /// Cycle at which read data for a read issued at `issue_cycle`
  /// finishes on the bus.
  cycles read_done(cycles issue_cycle) const {
    return issue_cycle + timing_.tcl + timing_.tbl;
  }
  cycles write_done(cycles issue_cycle) const {
    return issue_cycle + timing_.tcwl + timing_.tbl;
  }

  const timing_params& timing() const { return timing_; }

 private:
  struct bank_state {
    bank_status status = bank_status::precharged;
    int row = -1;
    cycles next_activate = 0;
    cycles next_copy_activate = 0;
    cycles next_precharge = 0;
    cycles next_column = 0;  // read/write after tRCD
  };

  struct rank_state {
    cycles next_activate = 0;       // tRRD
    cycles next_read = 0;           // tWTR turnaround
    cycles next_refresh_done = 0;   // tRFC
    std::deque<cycles> act_window;  // for tFAW
  };

  bank_state& bank(const command& cmd);
  const bank_state& bank(const command& cmd) const;
  rank_state& rank(const command& cmd);
  const rank_state& rank(const command& cmd) const;
  bool power_constrained(const command& cmd) const;

  organization org_;
  timing_params timing_;
  bool bulk_power_exempt_;
  std::vector<bank_state> banks_;  // [rank][bank] flattened
  std::vector<rank_state> ranks_;
  cycles bus_free_ = 0;      // data bus availability (cycle data may start)
  cycles next_column_ = 0;   // channel-wide tCCD
};

}  // namespace pim::dram

#endif  // PIM_DRAM_TIMING_CHECKER_H
