// Per-channel DRAM controller: FR-FCFS scheduling, open-row policy,
// refresh management, and bulk in-DRAM operation sequencing.
#ifndef PIM_DRAM_CONTROLLER_H
#define PIM_DRAM_CONTROLLER_H

#include <array>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "dram/request.h"
#include "dram/timing_checker.h"

namespace pim::dram {

/// Row-buffer management policy.
enum class row_policy {
  open,   // keep rows open until a conflict or refresh (FR-FCFS default)
  closed  // precharge as soon as no pending request hits the row
};

class controller {
 public:
  controller(const organization& org, const timing_params& timing,
             row_policy policy = row_policy::open,
             bool bulk_power_exempt = true, std::size_t queue_capacity = 64,
             mapping_policy mapping = mapping_policy::row_bank_column);

  /// Enqueues a host request; returns false when the queue is full.
  bool enqueue(request req);

  /// Enqueues a bulk in-DRAM command sequence (unbounded queue; the
  /// bulk engines self-throttle).
  void enqueue_bulk(bulk_sequence seq);

  /// Advances one DRAM clock cycle, issuing at most one command.
  void tick();

  /// Earliest cycle (> now) at which tick() could change any state: the
  /// refresh deadline, the PRE/REF of a rank awaiting refresh, the next
  /// command of each queued bulk sequence or request, or a completion.
  /// Every tick before it only advances the clock.
  cycles next_event_cycle() const;

  /// Moves the clock to `cycle` without ticking the cycles passed over;
  /// each of them must hold no event (`cycle < next_event_cycle()`).
  void jump_to(cycles cycle);

  /// True when no request or bulk work is pending or in flight.
  bool idle() const;

  cycles now_cycles() const { return cycle_; }
  picoseconds now_ps() const { return cycle_ * timing_.tck_ps; }

  /// Command and request counts by name ("dram.act", "ctrl.row_hits",
  /// ...); a count never incremented is absent.
  counter_set counters() const;
  const summary& read_latency_ps() const { return read_latency_ps_; }
  const organization& org() const { return org_; }
  const timing_params& timing() const { return timing_; }

  std::size_t pending_requests() const { return queue_.size(); }
  std::size_t pending_bulk() const { return bulk_queue_.size(); }

  // --- per-bank busy introspection (for runtime schedulers) -------------

  /// True while a bulk sequence holds (rank, bank) against other work.
  bool bank_busy(int rank, int bank) const {
    return bank_locked(rank * org_.banks + bank);
  }

  /// Number of banks currently locked by in-flight bulk sequences.
  std::size_t busy_banks() const { return locked_count_; }

 private:
  struct pending_request {
    request req;
    address addr;
    cycles enqueue_cycle = 0;
    bool classified = false;  // row hit/miss/conflict accounting done
  };

  struct bulk_state {
    bulk_sequence seq;
    std::size_t next = 0;    // next command index
    std::vector<int> banks;  // flat bank ids touched, ascending, unique
    bool started = false;
  };

  /// What counters() reports, indexed on the issue path; names in
  /// controller.cpp.
  enum class counter {
    requests, bulk_sequences, row_hits, row_misses, row_conflicts,
    refresh_pre, act, bulk_act, copy_act, tra, pre, bulk_pre, rd, bulk_rd,
    wr, bulk_wr, ref, count_
  };

  int flat_bank(const address& a) const {
    return a.rank * org_.banks + a.bank;
  }
  bool bank_locked(int flat) const {
    return locked_[static_cast<std::size_t>(flat)] != 0;
  }
  bool bank_open(int flat) const;
  void set_locked(const bulk_state& pb, bool locked);
  void count(counter c) { ++counts_[static_cast<std::size_t>(c)]; }
  command precharge_of(int flat) const;

  /// An unstarted sequence waits while a bank it touches is held or a
  /// rank it touches awaits refresh (so refresh cannot starve).
  bool start_blocked(const bulk_state& pb) const;

  /// Issues the command and accounts for it. Returns completion info
  /// for column commands.
  void issue(const command& cmd);

  bool try_issue_refresh();
  bool try_issue_bulk();
  bool try_issue_request();
  void finish_completions();

  /// Next command a request needs given current bank state, or nullopt
  /// if the bank is locked by a bulk sequence.
  std::optional<command> next_command(const pending_request& pr) const;

  organization org_;
  timing_params timing_;
  row_policy policy_;
  address_mapper mapper_;
  timing_checker checker_;

  cycles cycle_ = 0;
  std::deque<pending_request> queue_;
  std::size_t queue_capacity_;
  std::deque<bulk_state> bulk_queue_;
  // Per flat bank: held by a started bulk sequence.
  std::vector<std::uint8_t> locked_;
  std::size_t locked_count_ = 0;

  // Refresh state: one pending flag per rank.
  std::vector<bool> refresh_pending_;
  cycles next_refresh_ = 0;

  struct completion {
    cycles done = 0;
    std::function<void(picoseconds)> callback;
    cycles enqueued = 0;
    bool is_read = false;
  };
  std::vector<completion> completions_;
  std::size_t inflight_ = 0;

  std::array<std::uint64_t, static_cast<std::size_t>(counter::count_)>
      counts_{};
  summary read_latency_ps_;
};

}  // namespace pim::dram

#endif  // PIM_DRAM_CONTROLLER_H
