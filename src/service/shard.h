// One shard of the PIM service: a full simulated PIM stack
// (memory_system + Ambit + RowClone + pim_runtime inside a
// core::pim_system) owned exclusively by a dedicated worker thread
// that runs its tick loop.
//
// Clients submit through bounded per-session queues (admission
// control: a full queue blocks or rejects instead of growing without
// bound) and the worker pops across sessions by stride scheduling —
// each session's share of pops is proportional to its weight, so one
// heavy tenant cannot starve the others. This stride is the stack's
// one fair-share point: it orders every request, whichever backend its
// task lands on, and the runtime below serves what it is handed in
// order. A separate unbounded control queue, popped ahead of the
// session queues, carries service-internal traffic (migration
// capture/install, cross-shard write-backs). Every entry point ends in
// one admission tail (admit_locked).
//
// Vector handles are virtual (see request.h): the worker translates
// them to physical rows through a per-session remap at execute time,
// which is what lets sessions migrate between shards while clients
// keep their handles.
//
// Popped run_task requests are submitted to the shard's asynchronous
// runtime and overlap across banks; their client futures complete
// through per-task callbacks at the simulated completion instant.
// Functional requests (allocate / write / read) are hazard-checked at
// row granularity against the runtime scheduler's own hazard tables
// (scheduler::row_busy): the worker drains the runtime only when a
// request actually touches a row with an in-flight task, so
// independent sessions' metadata ops do not serialize everyone's
// compute.
//
// Every byte that crosses shards — plan fetches and write-backs,
// migration captures and installs — is priced as one RowClone PSM
// copy per row between the row and a wire row in another (rank, bank)
// of its channel. The constructor therefore requires every channel to
// offer wire rows in two (rank, bank) pairs and throws
// std::invalid_argument otherwise.
//
// Thread-safety contract: the worker thread is the only code that
// touches sys_ (and the worker-only members below) after start();
// everything clients reach — queues, counters, the published stats
// snapshot — lives behind mu_.
#ifndef PIM_SERVICE_SHARD_H
#define PIM_SERVICE_SHARD_H

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>

#include "core/pim_system.h"
#include "service/latency.h"
#include "service/request.h"

namespace pim::service {

struct shard_config {
  std::size_t session_queue_capacity = 64;  // per-session admission bound
};

/// The test every session weight passes: finite and positive. An
/// infinite or NaN weight would reach the stride pop as a 1/weight of 0
/// or NaN.
inline bool valid_weight(double weight) {
  return std::isfinite(weight) && weight > 0.0;
}

/// Telemetry one shard publishes; aggregated service-wide by
/// pim_service::stats().
struct shard_stats {
  int shard = 0;
  /// Admission queues open here: home sessions plus cross-shard plan
  /// issuers registered to run a plan here. pim_service::stats() takes
  /// its session count from the session directory instead.
  int sessions = 0;
  std::uint64_t requests_enqueued = 0;
  std::uint64_t requests_completed = 0;
  std::uint64_t requests_failed = 0;
  std::uint64_t requests_rejected = 0;  // try_enqueue refused (queue full)
  std::uint64_t enqueue_waits = 0;      // blocking submits that had to wait
  std::size_t peak_queue_depth = 0;     // max requests queued at once
  std::uint64_t tasks_submitted = 0;    // runtime tasks entered the scheduler
  bytes output_bytes = 0;               // sum of completed task outputs
  picoseconds now_ps = 0;               // shard's simulated clock
  std::uint64_t hazard_drains = 0;   // functional ops that found a row hazard
  std::uint64_t cross_plans = 0;     // stage_run requests executed here
  bytes staged_bytes = 0;            // RowClone-priced bytes landed here
  bytes exported_bytes = 0;          // RowClone-priced bytes read out of here
  std::uint64_t migrations_in = 0;   // sessions installed by migration
  /// Submit→complete wall-clock latency histograms per session hosted
  /// here (client-visible requests only; internal reservation markers
  /// are excluded). Mergeable across shards — pim_service::stats()
  /// folds them into per-session and service-wide percentiles.
  std::map<session_id, latency_histogram> session_latency;
  runtime::runtime_stats runtime;
};

/// What detach_session hands the migration coordinator: the session's
/// fair-share weight and its still-unexecuted backlog, extracted in
/// FIFO order with every client future intact.
struct detached_session {
  double weight = 1.0;
  std::deque<request> backlog;
};

class shard {
 public:
  shard(int index, const core::pim_system_config& system_config,
        shard_config config = {});
  ~shard();

  shard(const shard&) = delete;
  shard& operator=(const shard&) = delete;

  void start();
  /// Drains in-flight runtime tasks, fails everything still queued
  /// ("shard stopped"), and joins the worker.
  void stop();

  /// Freezes the worker (queued requests accumulate; used by tests to
  /// exercise admission control deterministically).
  void pause();
  void resume();

  /// Declares a session before its first request. Weight drives the
  /// shard's stride admission popping (see valid_weight; throws
  /// std::invalid_argument otherwise). Re-registering a previously
  /// migrated-away session revives it (the migrate-back path).
  void register_session(session_id id, double weight);

  /// Marks the session as moved (subsequent enqueues throw
  /// session_moved_error) and extracts its unexecuted backlog for
  /// forwarding to the destination shard. Called by the migration
  /// coordinator with client admission gated off service-wide.
  detached_session detach_session(session_id id);

  /// Blocking admission: waits while the session's queue is full.
  /// Throws session_moved_error if the session migrated away. The
  /// request is consumed only on admission, so the service's
  /// retry-on-moved routing can resubmit it intact; its completion
  /// state, once attached, is kept across retries (and forwarding).
  request_future enqueue(request& r);

  /// Non-blocking admission: nullopt when the session's queue is full
  /// (or the shard is stopped) — the backpressure signal. Throws
  /// session_moved_error if the session migrated away.
  std::optional<request_future> try_enqueue(request& r);

  /// Unbounded service-internal admission, popped ahead of every
  /// session queue and exempt from per-session registration — the
  /// channel for migration capture/install and cross-shard
  /// write-backs. Never blocks.
  request_future enqueue_control(request r);

  /// Splices a migrated session's unexecuted backlog into its queue in
  /// one shot (client futures intact, FIFO preserved, admission bound
  /// waived — the requests were admitted on the source shard). One
  /// lock acquisition instead of hundreds keeps a batch of concurrent
  /// migrations landing together on the receiving shard.
  void forward_backlog(session_id id, std::deque<request> backlog);

  /// Live per-session backlog sizes (moved sessions excluded) — the
  /// rebalancer's load signal and its victim shortlist.
  std::vector<std::pair<session_id, std::size_t>> session_backlogs() const;

  /// Point-in-time snapshot. When the worker is running, stats() asks
  /// it to publish at its next loop iteration and waits for that
  /// publish, so the simulated-clock counters (ticks, busy banks) are
  /// current even mid-burst — monitoring and the explain_analyze
  /// exactness cross-check both depend on this. Blocks at most one
  /// request execution.
  shard_stats stats() const;

  int index() const { return index_; }

 private:
  struct session_state {
    double weight = 1.0;
    double pass = 0.0;  // stride scheduling position
    bool moved = false;  // migrated away; enqueues throw session_moved_error
    std::deque<request> queue;
    /// Head request parked on a row reservation: the session pops
    /// nothing further (FIFO) until the reservation clears.
    std::optional<request> parked;
  };

  /// Completion fan-in for a group of RowClone-priced transfer tasks:
  /// the finalizer runs (on the worker thread, inside the scheduler's
  /// completion path) when the last task of the group completes.
  struct transfer_group {
    int remaining = 0;
    std::function<void()> finalize;
  };

  /// Why execute() could not run a request right now.
  enum class exec_result {
    done,         // executed (or failed) — finished with the request
    park_session, // touches reserved rows: park, session stalls (FIFO)
    park_token,   // needs its reservation marker placed first
  };

  void run();  // worker thread body
  /// The registered, not migrated-away session `id` (mu_ held); throws
  /// session_moved_error otherwise, for the router to re-resolve.
  session_state& session_locked(session_id id);
  /// The admission tail every entry point shares (mu_ held): queues
  /// `r` on `s` (the control queue when null), floors `s`'s stride
  /// pass if its queue was empty, stamps admission when `stamp` (a
  /// forwarded request keeps its first stamp), and counts it. Returns
  /// false, counting a failure and leaving `r` intact, if the shard
  /// stopped; the caller fails it once mu_ is released.
  bool admit_locked(request& r, session_state* s, bool stamp = true);
  /// After admit_locked, with mu_ released: wakes the worker for a
  /// queued request, or fails a refused one ("shard stopped").
  void settle(request_state& state, bool queued);
  bool pop_next_locked(request& out);
  exec_result execute(request& req);
  void drain();             // worker: advance until the runtime is idle
  void advance(int ticks);  // worker: advance a slice
  void publish_stats_locked();
  void fail_all_queued_locked();

  // --- worker-only helpers -------------------------------------------------
  dram::address translate_addr(session_id owner, const dram::address& a) const;
  dram::bulk_vector translate(session_id owner,
                              const dram::bulk_vector& v) const;
  void translate_task(session_id owner, runtime::pim_task& task) const;
  void drain_if_hazard(const dram::bulk_vector& phys);
  /// The wire row on `target`'s channel that prices its transfers: in
  /// another (rank, bank), which the constructor guarantees exists.
  const dram::address& wire_for(const dram::address& target) const;
  /// Submits one RowClone PSM copy priced as a wire hop between `phys`
  /// and its wire row: inbound (wire -> phys) lands a transfer,
  /// outbound (phys -> wire) exports one. `landed` runs at the copy's
  /// completion instant, before any hazard-ordered successor is
  /// released.
  void submit_psm(session_id stream, const dram::address& phys, bool inbound,
                  std::function<void()> landed);
  /// Lands `data` in `phys` with one inbound PSM copy per row; each
  /// row's slice is applied as its copy completes and counts down
  /// `group` when one is given.
  void stage_vector(session_id stream, const dram::bulk_vector& phys,
                    std::shared_ptr<const bitvector> data,
                    const std::shared_ptr<transfer_group>& group);
  std::vector<dram::bulk_vector> acquire_scratch(bits size, int count);
  void release_scratch(bits size, std::vector<dram::bulk_vector> group);
  void bump_completed(bytes output);
  /// Completes a client-visible request and charges its
  /// submit→complete latency to the session's histogram in one stats
  /// update. `kind` labels the request in the slow-request log;
  /// `report` (when the request ran a sim task) contributes the
  /// backend and simulated timestamps to the log entry.
  void complete_tracked(session_id session,
                        const std::shared_ptr<request_state>& state,
                        request_result result, bytes output,
                        const char* kind = "request",
                        const runtime::task_report* report = nullptr);

  void exec_allocate(request& req, const allocate_args& args);
  void exec_write(request& req, const write_args& args);
  void exec_read(request& req, const read_args& args);
  exec_result exec_run_task(request& req, run_task_args& args);
  void exec_stage_run(request& req, stage_run_args& args);
  void exec_stage_in(request& req, stage_in_args& args);
  void exec_install(request& req, install_args& args);

  /// True if any key is reserved by a token other than `own_token`.
  bool rows_reserved(const std::vector<std::uint64_t>& keys,
                     std::uint64_t own_token) const;
  bool vector_reserved(session_id owner, const dram::bulk_vector& v,
                       std::uint64_t own_token) const;
  void place_reservation(session_id owner, std::uint64_t token,
                         const dram::bulk_vector& v);
  void clear_reservation(std::uint64_t token);
  void unpark_sessions();

  const int index_;
  shard_config config_;
  core::pim_system sys_;

  mutable std::mutex mu_;
  // cv_worker_ is mutable so const stats() can nudge the worker into
  // an on-demand publish.
  mutable std::condition_variable cv_worker_;  // work arrived / state changed
  std::condition_variable cv_space_;   // queue space freed
  mutable std::condition_variable cv_stats_;   // publish completed
  /// Publish-on-demand handshake: stats() bumps requested_ and waits
  /// until publish_stats_locked() (worker loop top, idle points,
  /// shutdown) catches done_ up to it.
  mutable std::uint64_t stats_pub_requested_ = 0;
  std::uint64_t stats_pub_done_ = 0;
  bool running_ = false;
  bool stop_ = false;
  bool paused_ = false;
  std::map<session_id, session_state> sessions_;
  std::deque<request> control_queue_;
  std::size_t total_queued_ = 0;
  /// Service position of the stride pop (pass of the last pop);
  /// sessions joining or re-entering after an idle spell are floored
  /// to it so they cannot replay the share they did not use.
  double virtual_pass_ = 0.0;
  shard_stats stats_;
  /// Live per-session latency histograms (mu_); snapshotted into
  /// stats_.session_latency by publish_stats_locked.
  std::map<session_id, latency_histogram> latency_;

  // Worker-thread-only state (no lock needed; the constructor may also
  // touch it, before the worker exists).
  /// Per-session translation: virtual row id -> physical row address.
  std::unordered_map<session_id, std::unordered_map<int, dram::address>>
      remap_;
  /// Reusable co-located scratch groups for cross-shard staging,
  /// keyed by vector size (the allocator cannot free, so plans
  /// recycle instead of leaking capacity).
  std::map<std::pair<bits, int>, std::vector<std::vector<dram::bulk_vector>>>
      scratch_pool_;
  /// Per-channel landing rows in >= 2 distinct (rank, bank) pairs: the
  /// PSM partners that price inter-shard transfers on this shard's
  /// clock.
  std::map<int, std::vector<dram::address>> wire_;
  /// Relaxed mirror of the shard's simulated clock, published by the
  /// worker after each tick slice. Client threads stamp run_task
  /// admission (task.admit_ps) from it at enqueue time; it can lag —
  /// never lead — the clock the scheduler later stamps submit_ps
  /// from, and the scheduler clamps, so the wait-state partition
  /// stays exact regardless of mirror staleness.
  std::atomic<picoseconds> sim_now_ps_{0};
  /// Per-session runtime tasks in flight (worker-thread data, read by
  /// pop_next_locked on the same thread).
  std::unordered_map<session_id, int> session_inflight_;
  /// Active write-back reservations: token -> reserved row keys, plus
  /// the per-row token lists requests are checked against.
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>>
      reservations_;
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>>
      reserved_rows_;
  /// Control requests (stage_in / clear) waiting for their reservation
  /// marker to be placed.
  std::vector<request> waiting_on_token_;
  std::thread thread_;
};

}  // namespace pim::service

#endif  // PIM_SERVICE_SHARD_H
