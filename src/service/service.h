// pim_service: the sharded, multi-threaded front-end of the PIM stack.
//
// The paper's deployment story is many data-intensive clients —
// databases, graph engines, consumer apps — pushing bulk operations at
// memory concurrently. One simulated memory system ticks on one
// thread, so scale-out comes from sharding: the service owns N shards,
// each a complete PIM stack (memory_system + Ambit + RowClone +
// pim_runtime) with its own worker thread and tick loop, and a router
// that pins every client session (and therefore all of its vectors) to
// a home shard.
//
// On top of the home-shard fast path the service runs a two-phase
// cross-shard planner: an op whose operands live on different shards
// first stages remote operands into a co-located scratch group on the
// executing shard (chosen by an operand-bytes-moved cost model) with
// RowClone-priced copies, then computes there and lands the result in
// the destination owner's vector — digests stay bit-identical to
// single-shard execution. The same copy machinery powers
// migrate_session (move a session's vectors between shards, safe
// against inflight work) and a skew-triggered rebalance policy that
// drains hot-spotted shards.
//
// Layering: service_client → pim_service/shard queues → pim_runtime
// (dispatcher + scheduler) → memory_system (DRAM controllers + Ambit/
// RowClone engines).
#ifndef PIM_SERVICE_SERVICE_H
#define PIM_SERVICE_SERVICE_H

#include <atomic>
#include <memory>
#include <unordered_map>

#include "common/json_writer.h"
#include "service/router.h"
#include "service/shard.h"

namespace pim::service {

struct service_config {
  int shards = 4;
  core::pim_system_config system;  // per-shard simulated stack
  shard_config shard;
  shard_routing routing = shard_routing::hash;
  /// Range routing: sessions per shard block (ignored for hash).
  std::uint64_t sessions_per_shard = 64;
};

/// Service-wide telemetry: per-shard snapshots plus aggregates.
struct service_stats {
  std::vector<shard_stats> shards;

  std::uint64_t requests_enqueued = 0;
  std::uint64_t requests_completed = 0;
  std::uint64_t requests_failed = 0;
  std::uint64_t requests_rejected = 0;
  std::uint64_t enqueue_waits = 0;
  std::uint64_t tasks_submitted = 0;
  /// Sessions in the service's directory, each counted once wherever
  /// it lives (per-shard `sessions` also counts plan issuers).
  int sessions = 0;
  bytes output_bytes = 0;
  /// Slowest shard's simulated clock — the service-level makespan when
  /// every shard starts from t=0.
  picoseconds makespan_ps = 0;
  /// The scheduler meters (sched_meters below), summed across shards.
  /// Simulated-clock aggregates (machine-independent): scheduler ticks
  /// and busy-bank ticks. bench_diff compares these instead of
  /// wall-clock numbers.
  std::uint64_t total_ticks = 0;
  std::uint64_t busy_bank_ticks = 0;
  /// Live energy meter aggregates (obs/energy.h), summed across
  /// shards: integer femtojoules plus the moved-bytes ledger split by
  /// interface. Exact: each shard's meter is an integer sum of its
  /// tasks' charges, so these equal the sum over every completed
  /// task's report, independent of shard count or transport.
  std::uint64_t energy_fj = 0;
  bytes moved_insitu_bytes = 0;
  bytes moved_offchip_bytes = 0;
  bytes moved_wire_bytes = 0;
  /// Wait-state attribution aggregates (obs/critpath.h), summed across
  /// shards. The first five partition wait_lifetime_ps exactly — the
  /// same zero-remainder discipline as the energy meter — so the
  /// dashboard's shares need no remainder bucket.
  std::uint64_t wait_admission_ps = 0;
  std::uint64_t wait_hazard_ps = 0;
  std::uint64_t wait_bank_ps = 0;
  std::uint64_t wait_exec_ps = 0;
  std::uint64_t wait_wire_ps = 0;
  std::uint64_t wait_lifetime_ps = 0;
  std::uint64_t sched_submitted = 0;
  std::uint64_t sched_completed = 0;
  std::uint64_t hazard_deferred = 0;
  std::uint64_t hazard_drains = 0;
  std::uint64_t cross_plans = 0;
  bytes staged_bytes = 0;
  bytes exported_bytes = 0;
  std::uint64_t migrations = 0;
  /// Submit→complete latency, merged across shards: the service-wide
  /// histogram plus one per session (a migrated session's histograms
  /// from both shards fold together here).
  latency_histogram latency;
  std::map<session_id, latency_histogram> session_latency;

  /// Aggregate output bandwidth at the service interface.
  double aggregate_gbps() const {
    return gigabytes_per_second(output_bytes, makespan_ps);
  }

  /// Mean busy banks across all shards' tick loops.
  double avg_busy_banks() const {
    return total_ticks == 0 ? 0.0
                            : static_cast<double>(busy_bank_ticks) /
                                  static_cast<double>(total_ticks);
  }

  /// Emits the full telemetry tree (aggregates + per-shard) into an
  /// open JSON object.
  void to_json(json_writer& json) const;
};

/// How a scheduler meter is shown.
enum class meter_kind {
  count,   // shown as metered
  energy,  // metered in fJ, shown in pJ
  moved,   // bytes, on pim_top's moved: line
  wait,    // ps in one wait state, on pim_top's waits: line
};

/// One scheduler meter, declared once. `name` is its spelling on every
/// live surface: the stats JSON (the service's "sim" object and each
/// shard's entry), the shard gauges `service.shard.N.<name>`, the
/// snapshot counters `service.<name>` and pim_top. `label` is its
/// short name on pim_top's moved: or waits: line (empty for the other
/// kinds). A shard's scheduler meters it in `shard`;
/// pim_service::stats() sums the shards into `total`.
struct sched_meter {
  const char* name;
  const char* label;
  meter_kind kind;
  std::uint64_t runtime::scheduler_stats::*shard;
  std::uint64_t service_stats::*total;
};

inline constexpr sched_meter sched_meters[] = {
    {"total_ticks", "", meter_kind::count,
     &runtime::scheduler_stats::ticks, &service_stats::total_ticks},
    {"busy_bank_ticks", "", meter_kind::count,
     &runtime::scheduler_stats::busy_bank_ticks,
     &service_stats::busy_bank_ticks},
    {"sched_submitted", "", meter_kind::count,
     &runtime::scheduler_stats::submitted, &service_stats::sched_submitted},
    {"sched_completed", "", meter_kind::count,
     &runtime::scheduler_stats::completed, &service_stats::sched_completed},
    {"hazard_deferred", "", meter_kind::count,
     &runtime::scheduler_stats::hazard_deferred,
     &service_stats::hazard_deferred},
    {"energy_pj", "", meter_kind::energy,
     &runtime::scheduler_stats::energy_fj, &service_stats::energy_fj},
    {"moved_bytes_insitu", "insitu", meter_kind::moved,
     &runtime::scheduler_stats::insitu_bytes,
     &service_stats::moved_insitu_bytes},
    {"moved_bytes_offchip", "offchip", meter_kind::moved,
     &runtime::scheduler_stats::offchip_bytes,
     &service_stats::moved_offchip_bytes},
    {"moved_bytes_wire", "wire", meter_kind::moved,
     &runtime::scheduler_stats::wire_bytes, &service_stats::moved_wire_bytes},
    {"wait_admission_ps", "admission", meter_kind::wait,
     &runtime::scheduler_stats::wait_admission_ps,
     &service_stats::wait_admission_ps},
    {"wait_hazard_ps", "hazard", meter_kind::wait,
     &runtime::scheduler_stats::wait_hazard_ps,
     &service_stats::wait_hazard_ps},
    {"wait_bank_ps", "bank", meter_kind::wait,
     &runtime::scheduler_stats::wait_bank_ps, &service_stats::wait_bank_ps},
    {"exec_ps", "exec", meter_kind::wait, &runtime::scheduler_stats::exec_ps,
     &service_stats::wait_exec_ps},
    {"wire_ps", "wire", meter_kind::wait, &runtime::scheduler_stats::wire_ps,
     &service_stats::wait_wire_ps},
    {"task_lifetime_ps", "", meter_kind::count,
     &runtime::scheduler_stats::task_lifetime_ps,
     &service_stats::wait_lifetime_ps},
};

/// `v` as the counters and gauges show meter `m`: energy in whole pJ.
inline std::uint64_t shown_value(const sched_meter& m, std::uint64_t v) {
  return m.kind == meter_kind::energy ? v / 1000 : v;
}

struct session_info {
  session_id id = 0;
  int shard = 0;
};

class pim_service {
 public:
  explicit pim_service(service_config config = {});
  ~pim_service();

  pim_service(const pim_service&) = delete;
  pim_service& operator=(const pim_service&) = delete;

  void start();
  void stop();
  void pause();
  void resume();

  /// Opens a session: assigns an id, routes it to a home shard,
  /// registers its fair-share weight, and creates its entry in the
  /// vector-ownership directory. Thread-safe. Throws
  /// std::invalid_argument, minting no id, unless the weight is finite
  /// and positive (valid_weight).
  session_info open_session(double weight = 1.0);

  /// Allocates `count` co-located bulk vectors for `session` on its
  /// current shard. Blocks. Returns virtual handles (location-
  /// independent: they survive migration) and records the group in the
  /// ownership directory so migration can move it.
  std::vector<dram::bulk_vector> allocate(session_id session, bits size,
                                          int count);

  /// Routes a request to the session's current shard; transparently
  /// retries when the session migrates mid-call and waits out an
  /// in-progress migration. Blocking admission.
  request_future submit(request r);

  /// Non-blocking variant: nullopt when the session's queue is full.
  std::optional<request_future> try_submit(request r);

  /// Cross-shard bulk op: d = op(a[, b]) where operands may be owned
  /// by different sessions on different shards. Single-owner tasks
  /// take the direct fast path; mixed-owner tasks run the two-phase
  /// plan — RowClone-priced staging of remote operands onto the
  /// execution shard (picked by an operand-bytes-moved cost model),
  /// then compute, then a priced write-back to the destination owner.
  /// The returned future completes only after all phases. Blocks the
  /// caller during the fetch phase (like other metadata operations).
  /// `completion` optionally supplies a pre-built completion state (the
  /// socket server installs its response hook on one before
  /// submitting); when null the shard creates one.
  request_future submit_cross(session_id issuer, dram::bulk_op op,
                              const shared_vector& a, const shared_vector* b,
                              const shared_vector& d,
                              std::shared_ptr<request_state> completion =
                                  nullptr);

  /// Moves `session` — queue backlog, fair-share weight, and every
  /// vector it owns — to `shard`. Safe relative to inflight work: the
  /// capture reads are ordered behind the session's in-flight compute
  /// by the row-hazard graph, the unexecuted backlog is forwarded in
  /// FIFO order with client futures intact, and in-progress cross-
  /// shard plans involving the session are waited out first. Client
  /// handles stay valid (virtual addressing). Blocks until the
  /// session's data is resident on the destination.
  void migrate_session(session_id session, int shard);

  /// Skew-triggered rebalance: while the most loaded shard hosts more
  /// backlogged sessions than `threshold` x the mean (and meaningfully
  /// more than the least loaded), migrate its most backlogged sessions
  /// to the least loaded shard — planned as one batch from a single
  /// load snapshot and executed concurrently, so the receiving shard
  /// sees the moved tenants' chains together. Sessions queuing fewer
  /// than `min_backlog` requests are never worth the RowClone transfer
  /// tax and are left alone. Returns sessions moved. Meant to be
  /// called periodically from a control loop.
  int rebalance(double threshold = 1.5, std::size_t min_backlog = 16);

  /// The index of the shard that currently owns `id`'s vectors;
  /// throws for unknown sessions.
  int owner_shard(session_id id) const;

  int shard_count() const { return static_cast<int>(shards_.size()); }
  const service_config& config() const { return config_; }

  service_stats stats() const;

 private:
  struct session_record {
    int shard = 0;
    double weight = 1.0;
    bool migrating = false;  // routing waits on migrate_cv_ while set
    std::uint64_t next_virtual = 0;  // next virtual row id to mint
    /// Allocation groups (virtual handles): migration re-allocates at
    /// group granularity to preserve Ambit co-location.
    std::vector<std::vector<dram::bulk_vector>> groups;
  };

  /// Admits `r` on its session's current shard, retrying while the
  /// session migrates. `pinned`: the request belongs to a cross-shard
  /// plan that pinned its sessions, so it must not wait on the
  /// migrating flag (a migration stuck in pin-quiesce would otherwise
  /// deadlock against the pin-holding plan).
  request_future route(request& r, bool pinned = false);
  /// Pins `sessions` against migration for the life of the returned
  /// guard (released by the plan's final completion, on any path).
  /// Caller holds mu_: the pin must be atomic with resolving the
  /// sessions' placements, or migration's pin-quiesce could miss it.
  std::shared_ptr<void> pin_sessions_locked(
      const std::vector<session_id>& ids);

  service_config config_;
  shard_router router_;
  std::vector<std::unique_ptr<shard>> shards_;
  std::atomic<session_id> next_session_{0};
  std::atomic<std::uint64_t> next_token_{1};  // write-back reservations

  mutable std::mutex mu_;  // guards sessions_ and plan_refs_
  std::condition_variable migrate_cv_;  // a migration finished
  std::unordered_map<session_id, session_record> sessions_;
  std::unordered_map<session_id, std::shared_ptr<std::atomic<int>>>
      plan_refs_;
  /// Serializes the reserve->fetch section of cross-shard plans. Two
  /// plans that concurrently fetch each other's reserved destinations
  /// would otherwise deadlock: each fetch parks on the other plan's
  /// reservation, and each reservation is cleared only by a write-back
  /// gated behind the parked fetch. Holding this through the fetch
  /// phase means a fetch can only ever park on reservations of plans
  /// that already completed their fetches — a chain, never a cycle.
  std::mutex plan_order_mu_;
};

}  // namespace pim::service

#endif  // PIM_SERVICE_SERVICE_H
