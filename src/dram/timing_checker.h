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

#include <algorithm>
#include <deque>
#include <stdexcept>
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

  bank_status status(int rank, int bank) const {
    return banks_[flat(rank, bank)].status;
  }
  /// Open row of an active bank; -1 when precharged. A bank opened by
  /// triple_activate reports the TRA row address given in the command.
  int open_row(int rank, int bank) const {
    return banks_[flat(rank, bank)].row;
  }

  /// Cycle at which read data for a read issued at `issue_cycle`
  /// finishes on the bus.
  cycles read_done(cycles issue_cycle) const {
    return issue_cycle + timing_.tcl + timing_.tbl;
  }
  cycles write_done(cycles issue_cycle) const {
    return issue_cycle + timing_.tcwl + timing_.tbl;
  }

  const timing_params& timing() const { return timing_; }

  /// True when tRRD/tFAW constrain an activation `cmd` (a bulk one is
  /// exempt when the checker was built so).
  bool power_constrained(const command& cmd) const {
    return !(cmd.bulk && bulk_power_exempt_);
  }

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

  std::size_t flat(int rank, int bank) const {
    return static_cast<std::size_t>(rank) * org_.banks + bank;
  }
  bank_state& bank(const command& cmd) {
    return banks_[flat(cmd.addr.rank, cmd.addr.bank)];
  }
  const bank_state& bank(const command& cmd) const {
    return banks_[flat(cmd.addr.rank, cmd.addr.bank)];
  }
  rank_state& rank(const command& cmd) {
    return ranks_[static_cast<std::size_t>(cmd.addr.rank)];
  }
  const rank_state& rank(const command& cmd) const {
    return ranks_[static_cast<std::size_t>(cmd.addr.rank)];
  }

  organization org_;
  timing_params timing_;
  bool bulk_power_exempt_;
  std::vector<bank_state> banks_;  // [rank][bank] flattened
  std::vector<rank_state> ranks_;
  cycles bus_free_ = 0;      // data bus availability (cycle data may start)
  cycles next_column_ = 0;   // channel-wide tCCD
};

// Inline: the controller asks it for every candidate it weighs.
inline cycles timing_checker::earliest(const command& cmd) const {
  const bank_state& b = bank(cmd);
  const rank_state& r = rank(cmd);
  cycles t = r.next_refresh_done;
  switch (cmd.kind) {
    case command_kind::activate:
    case command_kind::triple_activate: {
      t = std::max(t, b.next_activate);
      if (power_constrained(cmd)) {
        t = std::max(t, r.next_activate);
        if (r.act_window.size() >= 4) {
          t = std::max(t, r.act_window.front() + timing_.tfaw);
        }
      }
      return t;
    }
    case command_kind::copy_activate:
      return std::max(t, b.next_copy_activate);
    case command_kind::precharge:
      return std::max(t, b.next_precharge);
    case command_kind::read: {
      t = std::max({t, b.next_column, r.next_read, next_column_});
      // Ensure the data burst finds the bus free.
      t = std::max(t, bus_free_ - timing_.tcl);
      return t;
    }
    case command_kind::write: {
      t = std::max({t, b.next_column, next_column_});
      t = std::max(t, bus_free_ - timing_.tcwl);
      return t;
    }
    case command_kind::refresh: {
      // All banks of the rank must be precharged; model as: issue no
      // earlier than every bank's precharge has taken effect.
      for (int bk = 0; bk < org_.banks; ++bk) {
        t = std::max(t, banks_[flat(cmd.addr.rank, bk)].next_activate);
      }
      return t;
    }
  }
  throw std::logic_error("unknown command kind");
}

}  // namespace pim::dram

#endif  // PIM_DRAM_TIMING_CHECKER_H
