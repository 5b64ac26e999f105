// Tick-attribution profiler: turns per-task simulated-clock samples
// (task reports) into an exact cost breakdown — who owns each
// simulated tick the scheduler burned.
//
// The scheduler's clock only advances while at least one task is in
// flight, so a shard's `total_ticks` delta over a workload equals the
// measure of the union of its tasks' [submit_ps, complete_ps]
// intervals. fold_samples() reconstructs that union with a boundary
// sweep and attributes every elementary interval to exactly one of
// the tasks active in it (the one submitted earliest, ties broken by
// (op, sub, submit order) — "blame the op that has been waiting
// longest"). The attribution is therefore an exact partition:
// summed over ops (or backends, or (channel,bank) lanes — the same
// blame assignment is projected three ways) it reproduces the
// scheduler's tick delta to the tick, which `query::explain_analyze`
// and bench_query gate on.
//
// Alongside the exact attribution each op also gets its raw wait
// (admission, hazard, bank) and execution (complete - start) tick
// sums. Those overlap across ops — they answer "how long did this op
// wait vs run", not "who owns the clock" — and both views together
// are the breakdown the paper's offload decisions need.
//
// Also here: the slow-request log, a bounded ring retaining the span
// tree of any request whose host-side latency exceeded a
// runtime-settable threshold (tail-based retention: the decision is
// made at completion time, when the latency is known).
#ifndef PIM_OBS_PROFILE_H
#define PIM_OBS_PROFILE_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "runtime/task.h"

namespace pim {
class json_writer;
}

namespace pim::obs {

/// One completed task, in the units the profiler folds. `group`
/// identifies the simulated clock the task ran on (one per shard):
/// busy intervals only union within a group. `op`/`sub` are
/// caller-defined labels (the query engine passes plan-step index and
/// partition). Everything else — stamps, lane, backend, bytes, energy
/// and the release edge — is the task's own report.
struct sim_op_sample {
  int group = 0;
  int op = -1;
  int sub = -1;
  runtime::task_report report;
};

/// Aggregated cost of one attribution bucket (an op, a backend, or a
/// (channel,bank) lane).
struct op_cost {
  std::uint64_t tasks = 0;
  std::uint64_t bytes = 0;
  /// Wait sums in ticks, overlapping across buckets like exec_ticks.
  /// (submit - admit): shard admission-queue wait (router
  /// backpressure), before the scheduler accepted the task.
  std::uint64_t admission_ticks = 0;
  /// (release - submit): row-hazard DAG wait behind earlier tasks.
  std::uint64_t blocked_ticks = 0;
  /// (start - release): executor-slot wait (host/NDP pools); zero for
  /// Ambit/RowClone tasks, which issue at release.
  std::uint64_t bank_ticks = 0;
  /// Sum of (complete - start) over the bucket's tasks, in ticks:
  /// issue to completion on the engines. Overlaps across buckets.
  std::uint64_t exec_ticks = 0;
  /// The subset of exec_ticks spent on wire transfers (wire_hop
  /// tasks: PSM bank-to-bank staging/export).
  std::uint64_t wire_ticks = 0;
  /// This bucket's share of the exact busy-tick partition. Summed
  /// over all buckets of one projection it equals the scheduler's
  /// total_ticks delta.
  std::uint64_t attributed_ticks = 0;
  /// Energy + moved-bytes attribution. Unlike ticks these never
  /// overlap (a task's charge belongs wholly to its bucket), so each
  /// projection sums to the profile totals — and, when the samples
  /// cover a workload, to the scheduler's meter delta — exactly.
  std::uint64_t energy_fj = 0;
  std::uint64_t insitu_bytes = 0;
  std::uint64_t offchip_bytes = 0;
  std::uint64_t wire_bytes = 0;
};

struct tick_profile {
  std::int64_t tick_ps = 0;
  /// The same exact attribution projected three ways; each map's
  /// attributed_ticks sums to total_attributed_ticks.
  std::map<int, op_cost> by_op;
  std::map<int, op_cost> by_backend;  // runtime::backend_kind as int
  std::map<std::pair<int, int>, op_cost> by_lane;  // (channel, bank)
  /// Busy-union measure per group (== that shard's tick delta).
  std::map<int, std::uint64_t> group_ticks;
  std::uint64_t total_attributed_ticks = 0;
  std::uint64_t total_tasks = 0;
  std::uint64_t total_bytes = 0;
  /// Meter totals over the folded samples; every projection's
  /// energy_fj / *_bytes sums reproduce these exactly.
  std::uint64_t total_energy_fj = 0;
  std::uint64_t total_insitu_bytes = 0;
  std::uint64_t total_offchip_bytes = 0;
  std::uint64_t total_wire_bytes = 0;
};

/// Folds completed-task samples into the exact tick attribution.
/// `tick_ps` is the simulated clock period (dram timing tck_ps);
/// every sample timestamp must be a multiple of it, and every
/// sample's stamps must telescope (as every completed report's do).
tick_profile fold_samples(const std::vector<sim_op_sample>& samples,
                          std::int64_t tick_ps);

// --- slow-request log ------------------------------------------------------

/// One retained tail request. `report` is the completing task's
/// (default when the request ran no task): its stamps, release edge
/// and wire-hop flag answer "why was this one slow" without a trace
/// file. `spans` is the request's span tree captured from the tracer
/// at retention time (empty when tracing was off).
struct slow_request {
  std::uint64_t flow = 0;
  std::uint64_t session = 0;
  int shard = -1;
  const char* kind = "";  // payload span name (static storage)
  std::int64_t latency_ns = 0;
  runtime::task_report report;

  /// Largest typed segment of the request's sim lifetime, as
  /// ("admission"|"hazard"|"bank"|"wire"|"exec", percent of
  /// lifetime). Returns ("none", 0) for a zero-length lifetime.
  std::pair<const char*, int> dominant_wait() const;
  std::vector<trace_event> spans;
};

/// Process-wide bounded ring of tail requests. Completion paths call
/// threshold_ns() (one relaxed load; 0 = disabled) and observe() only
/// past the threshold, so the log costs one branch on the fast path.
class slow_request_log {
 public:
  static slow_request_log& instance();

  /// 0 disables retention (the default).
  void set_threshold_ns(std::int64_t ns) {
    threshold_ns_.store(ns, std::memory_order_relaxed);
  }
  std::int64_t threshold_ns() const {
    return threshold_ns_.load(std::memory_order_relaxed);
  }

  /// Ring capacity; shrinking drops oldest entries immediately.
  void set_capacity(std::size_t n);

  /// Retains `r`, evicting the oldest entry when full. When the
  /// tracer is enabled and `r.spans` is empty, captures every traced
  /// event of `r.flow` as the span tree.
  void observe(slow_request r);

  /// Oldest-first copy of the ring.
  std::vector<slow_request> entries() const;

  /// Total observed (retained + later evicted) since process start.
  std::uint64_t observed() const {
    return observed_.load(std::memory_order_relaxed);
  }

  void clear();

  /// {"threshold_ns": .., "observed": .., "entries": [...]} into an
  /// open JSON object.
  void to_json(json_writer& json) const;

 private:
  slow_request_log() = default;

  std::atomic<std::int64_t> threshold_ns_{0};
  std::atomic<std::uint64_t> observed_{0};
  mutable std::mutex mu_;
  std::size_t capacity_ = 64;
  std::deque<slow_request> ring_;
};

}  // namespace pim::obs

#endif  // PIM_OBS_PROFILE_H
