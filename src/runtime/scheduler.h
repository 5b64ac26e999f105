// Bank-parallel batching scheduler for PIM tasks.
//
// The synchronous pim_system path drains the whole memory system after
// every bulk op, so two ops on different banks serialize even though
// the controllers can interleave their command sequences. The
// scheduler instead accepts many tasks at once, releases every task
// whose data hazards have cleared, and advances all channels in a
// single tick loop — N independent ops on different (channel, bank)
// resources overlap, and only true row-level dependencies serialize.
//
// Hazards are tracked at DRAM-row granularity: a task waits for any
// earlier in-flight task that writes a row it touches, or reads a row
// it writes (RAW / WAW / WAR). Released PIM tasks go to the Ambit or
// RowClone engine; host and logic-layer tasks occupy a slot of the
// corresponding executor pool for their modeled service time, and wait
// for one in FIFO order. The scheduler keeps no fair share: the service
// shard's stride admission decides which session's task arrives here
// next.
#ifndef PIM_RUNTIME_SCHEDULER_H
#define PIM_RUNTIME_SCHEDULER_H

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dram/memory_system.h"
#include "dram/rowclone.h"
#include "obs/energy.h"
#include "runtime/task.h"

namespace pim::runtime {

struct scheduler_config {
  int host_slots = 1;       // concurrent host fallback executions
  int ndp_slots = 4;        // concurrent logic-layer kernel executions
};

/// Counters the scheduler accumulates while ticking.
struct scheduler_stats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t hazard_deferred = 0;  // tasks that waited on a dependency
  std::uint64_t ticks = 0;
  std::uint64_t busy_bank_ticks = 0;  // sum over ticks of busy banks
  int peak_busy_banks = 0;
  int peak_in_flight = 0;  // released, not yet complete

  /// Live energy meter totals (obs/energy.h): the sum of every
  /// completed task's charge, accumulated in integer femtojoules at
  /// the same point the task's ticks are stamped — so any per-op /
  /// per-backend / per-session partition of the reports sums to
  /// exactly these totals. Zero while metering is disabled.
  std::uint64_t energy_fj = 0;
  std::uint64_t insitu_bytes = 0;   // moved inside the die / stack
  std::uint64_t offchip_bytes = 0;  // moved across the DDR pins
  std::uint64_t wire_bytes = 0;     // moved bank-to-bank (PSM)

  /// Wait-state attribution totals: per-completed-task sums of each
  /// typed lifetime segment on the simulated clock, in picoseconds
  /// (obs/critpath.h). The task timestamps telescope, so by
  /// construction
  ///   wait_admission + wait_hazard + wait_bank + exec + wire
  ///     == task_lifetime_ps
  /// with zero remainder — the same exactness discipline as the tick
  /// and energy meters, checked end to end by the benches.
  std::uint64_t wait_admission_ps = 0;  // shard admission queue
  std::uint64_t wait_hazard_ps = 0;     // row-hazard DAG wait
  std::uint64_t wait_bank_ps = 0;       // executor-slot wait
  std::uint64_t exec_ps = 0;            // executing (non-wire)
  std::uint64_t wire_ps = 0;            // executing wire transfers
  std::uint64_t task_lifetime_ps = 0;   // sum of complete - admit

  /// Mean banks concurrently held by bulk sequences — the bank-level
  /// parallelism actually extracted.
  double avg_busy_banks() const {
    return ticks == 0 ? 0.0
                      : static_cast<double>(busy_bank_ticks) /
                            static_cast<double>(ticks);
  }
};

class scheduler {
 public:
  scheduler(dram::memory_system& mem, dram::ambit_engine& ambit,
            dram::rowclone_engine& rowclone, scheduler_config config = {});

  /// Accepts a routed task. Returns immediately; the work runs as the
  /// clock advances (tick / wait / wait_all).
  task_future submit(pim_task task, backend_kind where,
                     core::offload_decision decision);

  /// Advances the memory system and the executor pools by one DRAM
  /// clock, completing tasks and releasing their dependents.
  void tick();

  /// True when no task is pending, in flight, or queued on an executor.
  bool idle() const;

  /// Advances until `future` completes; throws once a watchdog's worth
  /// of simulated cycles passes without it.
  void wait(const task_future& future);

  /// Advances until every submitted task has completed; same watchdog.
  void wait_all();

  /// Advances `n` cycles, or fewer if the scheduler goes idle first.
  void advance(cycles n);

  /// Invoked once per task, at completion, with its final report (the
  /// runtime hangs per-backend utilization accounting here).
  void set_completion_hook(std::function<void(const task_report&)> hook) {
    completion_hook_ = std::move(hook);
  }

  const scheduler_stats& stats() const { return stats_; }

  /// Tasks submitted and not yet completed.
  std::size_t outstanding() const { return outstanding_; }

  /// True while an active (submitted, not yet completed) task reads or
  /// writes row `key` (memory_system::row_key). The hazard tables keep
  /// only a row's last writer and the readers since it; a task they
  /// dropped is a dependency of the writer that superseded it, and that
  /// writer stays active at least as long.
  bool row_busy(std::uint64_t key) const;

  /// Appends the row keys `task` reads and writes — the rows its
  /// hazards are tracked on.
  void collect_rows(const pim_task& task, std::vector<std::uint64_t>& reads,
                    std::vector<std::uint64_t>& writes) const;

  /// Names this scheduler's simulated-time trace process (one per
  /// shard: "shard N sim"). Without it the first traced task
  /// allocates an anonymous sim pid lazily.
  void set_trace_process(std::string name) { trace_name_ = std::move(name); }

 private:
  struct executor_pool {
    int slots = 1;
    std::deque<task_id> queue;  // released, waiting for a slot (FIFO)
    std::vector<std::pair<task_id, picoseconds>> running;  // id, deadline
  };

  struct node {
    pim_task task;
    backend_kind where = backend_kind::host;
    std::shared_ptr<task_future::shared_state> future;
    std::vector<std::uint64_t> reads;   // row keys
    std::vector<std::uint64_t> writes;  // row keys
    int unmet_deps = 0;
    std::vector<task_id> dependents;
    // Which row carried the hazard against each dependency — looked
    // up when the last dep clears to stamp blocked_on/blocked_row.
    std::vector<std::pair<task_id, std::uint64_t>> dep_rows;
    bool released = false;
  };

  void validate(const pim_task& task, backend_kind where) const;
  void release(task_id id);
  void start_on_executor(executor_pool& pool, task_id id);
  void complete(task_id id);
  void apply_host_result(const node& n);
  void process_completions();

  /// First cycle at which tick() finishes an executor run (max when
  /// none runs).
  cycles next_deadline_cycle() const;

  /// Earliest cycle at which tick() could change any state: the memory
  /// system's next event or an executor-pool deadline.
  cycles next_event_cycle() const;

  /// The event loop behind wait, wait_all and advance: until `done()`,
  /// issues the memory system's quiet run before the next executor
  /// deadline and `limit` (memory_system::run_quiet), jumps over the
  /// cycles before the next event (capped at `limit`), counting both
  /// into the stats as tick() would, then ticks that event. Returns
  /// false if `limit` is reached first.
  template <typename Done>
  bool run_until(cycles limit, Done done);

  dram::memory_system& mem_;
  dram::ambit_engine& ambit_;
  dram::rowclone_engine& rowclone_;
  scheduler_config config_;
  obs::energy_model energy_model_;

  task_id next_id_ = 1;
  std::unordered_map<task_id, node> active_;
  std::size_t outstanding_ = 0;  // submitted, not yet complete
  std::size_t in_flight_ = 0;    // released, not yet complete

  // Row-granular hazard tables. Entries may reference completed tasks;
  // lookups filter through `active_`.
  std::unordered_map<std::uint64_t, task_id> last_writer_;
  std::unordered_map<std::uint64_t, std::vector<task_id>> readers_;

  /// Trace lane for one task: the (channel, bank) its output lands
  /// in, or the executor lane for host/ndp work. Lanes register
  /// lazily under this scheduler's sim pid the first time a traced
  /// task completes on them.
  std::uint32_t trace_lane(const node& n);

  /// The output row a task lands on (null for host/NDP work) — the
  /// per-op attribution lane stamped into its report and the track
  /// trace_lane registers.
  static const dram::address* output_address(const pim_task& task);

  std::string trace_name_ = "pim sim";
  int trace_pid_ = 0;  // 0 = not yet allocated
  std::unordered_map<std::uint64_t, std::uint32_t> trace_lanes_;
  std::uint32_t trace_exec_lane_ = UINT32_MAX;

  executor_pool host_pool_;
  executor_pool ndp_pool_;
  std::vector<task_id> completed_fifo_;  // engine callbacks land here
  std::function<void(const task_report&)> completion_hook_;

  scheduler_stats stats_;
};

}  // namespace pim::runtime

#endif  // PIM_RUNTIME_SCHEDULER_H
