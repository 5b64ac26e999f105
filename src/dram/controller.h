// Per-channel DRAM controller: FR-FCFS scheduling of host requests
// (rows stay open until a conflict, a refresh or a bulk sequence closes
// them), refresh management, and bulk in-DRAM operation sequencing,
// whose mid-sequence commands issue in quiet runs without a walk each.
#ifndef PIM_DRAM_CONTROLLER_H
#define PIM_DRAM_CONTROLLER_H

#include <array>
#include <deque>
#include <optional>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "dram/request.h"
#include "dram/timing_checker.h"

namespace pim::dram {

class controller {
 public:
  /// Host requests a channel holds before enqueue() refuses one.
  static constexpr std::size_t queue_capacity = 64;

  controller(const organization& org, const timing_params& timing,
             bool bulk_power_exempt = true);

  /// Enqueues a host request for the column at `at`, which the caller
  /// has decoded; returns false when the queue is full.
  bool enqueue(request req, const address& at);

  /// Enqueues a bulk in-DRAM command sequence (unbounded queue; the
  /// bulk engines self-throttle).
  void enqueue_bulk(bulk_sequence seq);

  /// Advances one DRAM clock cycle, issuing at most one command: the
  /// first candidate (for_each_candidate) whose timing allows it.
  void tick();

  /// Earliest cycle (> now) at which tick() could change any state: the
  /// refresh deadline, the earliest issue cycle of any candidate, or a
  /// completion. Every tick before it only advances the clock.
  ///
  /// It also records the command tick() issues at that cycle: the
  /// first candidate ready at now + 1 if there is one, else the first
  /// with the least earliest cycle. tick() then issues it without
  /// walking the candidates, and ticks before that cycle issue nothing;
  /// a repeated call returns the recorded cycle. enqueue, enqueue_bulk,
  /// an issued command and the refresh deadline drop the record. While
  /// a quiet run's candidates hold (next_quiet), the record is taken
  /// from them instead of a walk.
  cycles next_event_cycle() const;

  /// Moves the clock to `cycle` without ticking the cycles passed over;
  /// each of them must hold no event (`cycle < next_event_cycle()`).
  void jump_to(cycles cycle);

  /// Quiet runs. A command is quiet when it changes nothing outside
  /// the controller, so busy_banks() and every completion hold across
  /// it: a bulk command that neither starts nor finishes its sequence,
  /// issued before the refresh deadline and before any completion is
  /// due. A run issues them back to back, without a candidate walk or
  /// a tick per command; ticking the same cycles would leave the same
  /// state.
  struct quiet_step {
    cycles at = 0;       // next_event_cycle()
    bool quiet = false;  // the event is a quiet command issued at `at`
  };

  /// The next event and whether it is a quiet command. The first call
  /// after a change collects the candidates (for_each_candidate); a
  /// quiet issue then re-computes only what its command can move, so
  /// the collection serves the whole run. It also records the event
  /// for tick() as next_event_cycle() does. While host requests are
  /// queued nothing is quiet.
  quiet_step next_quiet() {
    if (!queue_.empty()) return {next_event_cycle(), false};
    if (!run_.valid) collect_run();
    // A record plan() walked for is never quiet; the run takes over
    // after the next issue.
    if (!plan_ || plan_->at <= cycle_) plan_from_run();
    return {plan_->at, plan_->quiet};
  }

  /// Issues the quiet command next_quiet() found, at its cycle, moving
  /// the clock there; tick() does the same when that cycle's event is
  /// a quiet command. Builds with PIM_VERIFY check each step the run's
  /// candidates choose against plan()'s full walk.
  void issue_quiet();

  /// True when no request or bulk work is pending or in flight.
  bool idle() const;

  cycles now_cycles() const { return cycle_; }
  picoseconds now_ps() const { return cycle_ * timing_.tck_ps; }

  /// Command and request counts by name ("dram.act", "ctrl.row_hits",
  /// ...); a count never incremented is absent.
  counter_set counters() const;

  /// Number of banks currently locked by in-flight bulk sequences.
  std::size_t busy_banks() const { return locked_count_; }

 private:
  struct pending_request {
    request req;
    address addr;
    bool classified = false;  // row hit/miss/conflict accounting done
  };

  struct bulk_state {
    bulk_sequence seq;
    std::size_t next = 0;    // next command index
    std::vector<int> banks;  // flat bank ids touched, ascending, unique
    bool started = false;
  };

  struct completion {
    cycles done = 0;
    std::function<void(picoseconds)> callback;
  };

  /// What counters() reports, indexed on the issue path; names in
  /// controller.cpp.
  enum class counter {
    requests, bulk_sequences, row_hits, row_misses, row_conflicts,
    refresh_pre, act, bulk_act, copy_act, tra, pre, bulk_pre, rd, bulk_rd,
    wr, bulk_wr, ref, count_
  };

  /// What a candidate command advances when it issues.
  enum class source { refresh_pre, refresh, bulk_pre, bulk, request };

  /// plan()'s record: tick() changes nothing before `at` and, when
  /// `issues`, issues `cmd` at `at`. `entry` indexes the bulk_queue_ or
  /// queue_ entry a bulk or request command advances. A record taken
  /// from the quiet run (plan_from_run) also names the run_.bulk
  /// candidate in `slot` and tells whether the command is quiet.
  struct planned_issue {
    cycles at = 0;
    bool issues = false;
    bool quiet = false;
    command cmd;
    source from = source::request;
    std::size_t entry = 0;
    std::size_t slot = 0;
  };

  /// One candidate of a quiet run: a command, its earliest cycle, the
  /// bulk_queue_ entry it advances (source::bulk; `seq` points at it)
  /// and whether it is a started sequence's command that does not
  /// finish it.
  struct run_candidate {
    command cmd;
    cycles at = 0;
    source from = source::bulk;
    std::size_t entry = 0;
    bulk_state* seq = nullptr;
    bool mid = false;
  };

  /// The candidates for_each_candidate yields, in its order, while no
  /// host request is queued: the refresh ones apart, because they are
  /// collected again after a row opens or closes in a rank awaiting
  /// refresh. `bound` is the refresh deadline or the first completion,
  /// if earlier. Valid until something other than a quiet issue
  /// changes the controller.
  struct quiet_run {
    bool valid = false;
    cycles bound = 0;
    std::vector<run_candidate> refresh;
    std::vector<run_candidate> bulk;
  };

  /// Calls visit(cmd, source, bulk, request) for every command tick()
  /// could issue, in tick()'s priority order, until visit returns true:
  ///   - for each rank awaiting refresh, PREs for its open banks that no
  ///     bulk sequence holds, then its REF once every bank is closed;
  ///   - bulk sequences oldest first, each unstarted one preceded by
  ///     PREs for the rows host traffic left open in its banks;
  ///   - FR-FCFS host requests: row hits oldest first, then row
  ///     commands oldest first.
  /// `bulk` and `request` point at the queue entry the command
  /// advances (end() for other sources).
  template <typename Visit>
  void for_each_candidate(Visit visit) const;

  /// The refresh part of for_each_candidate; true when visit stopped
  /// the walk.
  template <typename Visit>
  bool for_each_refresh_candidate(Visit& visit) const;

  /// Records in plan_ the earliest cycle >= `soon` at which tick()
  /// could change any state, and the command tick() issues then, if
  /// any: the first candidate ready at `soon` if there is one, else the
  /// first with the least earliest cycle. next_event_cycle() plans for
  /// now + 1; tick() plans for the cycle it enters when no record
  /// covers that cycle.
  void plan(cycles soon) const;

  /// Records in plan_ what plan(now + 1) would, from run_: the
  /// candidate with the least max(earliest, now + 1), walk order
  /// breaking ties.
  void plan_from_run() const;

  /// Collects run_'s candidates: the refresh ones, or all of them.
  void collect_refresh_candidates();
  void collect_run();

  /// Drops plan()'s record and the quiet run: state other than a
  /// quiet issue's changed.
  void changed() {
    plan_.reset();
    run_.valid = false;
  }

  int flat_bank(const address& a) const {
    return a.rank * org_.banks + a.bank;
  }
  bool bank_locked(int flat) const {
    return locked_[static_cast<std::size_t>(flat)] != 0;
  }
  bool bank_open(int flat) const;
  void set_locked(const bulk_state& pb, bool locked);
  void count(counter c) { ++counts_[static_cast<std::size_t>(c)]; }
  /// Places `cmd` on the bus this cycle and counts it by kind.
  void place(const command& cmd);
  command precharge_of(int flat) const;

  /// An unstarted sequence waits while a bank it touches is held or a
  /// rank it touches awaits refresh (so refresh cannot starve).
  bool start_blocked(const bulk_state& pb) const;

  /// Next command a request needs given current bank state, or nullopt
  /// while a bulk sequence holds its bank or its rank awaits refresh.
  std::optional<command> next_command(const pending_request& pr) const;

  /// Places `cmd` on the bus this cycle, counts it and advances what it
  /// came from: `pb` and `pr` point at the queue entry it advances
  /// (end() for other sources), which issue() may erase.
  void issue(const command& cmd, source from,
             std::deque<bulk_state>::iterator pb,
             std::deque<pending_request>::iterator pr);

  /// Schedules `callback` for when `cmd`, issued this cycle, finishes:
  /// column commands after their data burst, row commands at issue.
  void complete(const command& cmd,
                std::function<void(picoseconds)> callback);
  void finish_completions();

  organization org_;
  timing_params timing_;
  timing_checker checker_;

  cycles cycle_ = 0;
  std::deque<pending_request> queue_;
  std::deque<bulk_state> bulk_queue_;
  // Per flat bank: held by a started bulk sequence.
  std::vector<std::uint8_t> locked_;
  std::size_t locked_count_ = 0;

  // Refresh state: one pending flag per rank.
  std::vector<std::uint8_t> refresh_pending_;
  cycles next_refresh_ = 0;

  // plan()'s record, if it still holds.
  mutable std::optional<planned_issue> plan_;

  quiet_run run_;

  std::vector<completion> completions_;

  std::array<std::uint64_t, static_cast<std::size_t>(counter::count_)>
      counts_{};
};

}  // namespace pim::dram

#endif  // PIM_DRAM_CONTROLLER_H
