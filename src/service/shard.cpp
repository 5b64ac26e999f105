#include "service/shard.h"

#include <algorithm>
#include <set>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "service/service.h"

namespace pim::service {

namespace {

/// Trace span names for execute(), indexed by request_payload index.
constexpr const char* payload_span_names[] = {
    "allocate", "write",   "read",    "run_task", "stage_run",
    "stage_in", "install", "forget",  "reserve",  "clear"};

/// Runtime tasks released at once.
constexpr std::size_t max_inflight = 64;
/// Runtime tasks one session may hold in flight. A deep serial chain
/// is hazard-deferred anyway, so letting one tenant fill the whole
/// inflight window just starves everyone else's bank parallelism (a
/// convoy that shows up when a migrated session's forwarded backlog
/// lands on a quiet shard).
constexpr int session_max_inflight = 8;
/// DRAM clocks a worker slice spans (the scheduler ticks only the
/// cycles among them where something can happen).
constexpr int ticks_per_slice = 128;

/// Admission stamp for wait-state attribution: a run_task request
/// records the shard's simulated clock (a relaxed mirror — may lag,
/// never leads) at the instant it enters the admission queue. The
/// scheduler turns submit - admit into the request's admission_queued
/// segment. Requests forwarded by migration keep their original
/// stamp (first admission is the one that queued).
void stamp_admission(request& r, picoseconds now) {
  if (auto* args = std::get_if<run_task_args>(&r.payload)) {
    if (args->task.admit_ps == 0) args->task.admit_ps = now;
  }
}

/// The completion state `r` reports through, created on its first
/// admission attempt: a retried or forwarded request keeps its own, so
/// its latency still counts from the first submit.
std::shared_ptr<request_state> attach(request& r) {
  if (r.completion == nullptr) {
    r.completion = std::make_shared<request_state>();
  }
  return r.completion;
}

}  // namespace

shard::shard(int index, const core::pim_system_config& system_config,
             shard_config config)
    : index_(index), config_(config), sys_(system_config) {
  config_.session_queue_capacity =
      std::max<std::size_t>(1, config_.session_queue_capacity);
  stats_.shard = index;
  sys_.runtime().sched().set_trace_process("shard " + std::to_string(index) +
                                           " sim");

  // Wire rows: one landing row per (channel, bank), the PSM partners
  // that price inter-shard transfers on this shard's clock. One per
  // bank — rather than one per channel — lets transfers of different
  // rows overlap to whatever degree the controller's bus arbitration
  // really allows, instead of artificially WAW-serializing every
  // migration and staging copy behind a single landing row. The
  // allocator's bank-fastest striping covers every (channel, bank)
  // within the first banks*channels single-row allocations. A channel
  // needs at least two (rank, bank) pairs, so every row has a partner
  // outside its own bank.
  const dram::organization& org = sys_.org();
  const auto wanted = static_cast<std::size_t>(std::max(2, org.banks));
  const int attempts = 2 * org.banks * org.channels * std::max(1, org.ranks);
  std::map<int, std::set<std::pair<int, int>>> covered;
  auto all_covered = [&](std::size_t n) {
    for (int c = 0; c < org.channels; ++c) {
      if (covered[c].size() < n) return false;
    }
    return true;
  };
  for (int i = 0; i < attempts && !all_covered(wanted); ++i) {
    const dram::address a = sys_.allocate(org.row_bits(), 1)[0].rows[0];
    if (covered[a.channel].insert({a.rank, a.bank}).second) {
      wire_[a.channel].push_back(a);
    }
  }
  if (!all_covered(2)) {
    throw std::invalid_argument(
        "shard: every channel needs rows in two (rank, bank) pairs to price "
        "inter-shard transfers");
  }
}

shard::~shard() { stop(); }

void shard::start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (stop_) throw std::runtime_error("shard: cannot restart a stopped shard");
  if (running_) return;
  running_ = true;
  thread_ = std::thread([this] { run(); });
}

void shard::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_worker_.notify_all();
  cv_space_.notify_all();
  if (thread_.joinable()) thread_.join();
  // If the worker never ran (stop before start), queued requests are
  // failed here; otherwise the worker already did this on its way out.
  std::lock_guard<std::mutex> lock(mu_);
  fail_all_queued_locked();
  publish_stats_locked();
}

void shard::pause() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = true;
  }
  cv_worker_.notify_all();
}

void shard::resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  cv_worker_.notify_all();
}

void shard::register_session(session_id id, double weight) {
  if (!valid_weight(weight)) {
    throw std::invalid_argument(
        "shard: session weight must be finite and positive");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (stop_) throw std::runtime_error("shard: stopped");
  auto [it, inserted] = sessions_.try_emplace(id);
  session_state& s = it->second;
  s.weight = weight;
  s.moved = false;  // re-registering revives a migrated-away session
  if (inserted) {
    // A session joining mid-run starts at the current service position
    // so it competes fairly from now on instead of claiming back-share.
    s.pass = virtual_pass_;
  } else {
    s.pass = std::max(s.pass, virtual_pass_);
  }
}

detached_session shard::detach_session(session_id id) {
  detached_session out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end() || it->second.moved) {
      throw std::invalid_argument("shard: cannot detach unknown session");
    }
    session_state& s = it->second;
    out.weight = s.weight;
    out.backlog = std::move(s.queue);
    s.queue.clear();
    total_queued_ -= out.backlog.size();
    s.moved = true;
  }
  // Blocked enqueuers wake, observe `moved`, and throw
  // session_moved_error for the service to reroute.
  cv_space_.notify_all();
  cv_worker_.notify_all();
  return out;
}

shard::session_state& shard::session_locked(session_id id) {
  // Not registered *here*: the service-level directory is the authority
  // on session existence; at shard level this is a stale resolution
  // racing a migration (the session may be mid-install on this very
  // shard).
  auto it = sessions_.find(id);
  if (it == sessions_.end() || it->second.moved) throw session_moved_error();
  return it->second;
}

bool shard::admit_locked(request& r, session_state* s, bool stamp) {
  if (stop_) {
    ++stats_.requests_failed;
    return false;
  }
  std::deque<request>& queue = s != nullptr ? s->queue : control_queue_;
  if (s != nullptr && queue.empty()) {
    // Stride re-entry rule: a session resuming after an idle spell is
    // floored to the current service position — it must not replay
    // the share it did not use.
    s->pass = std::max(s->pass, virtual_pass_);
  }
  if (stamp) stamp_admission(r, sim_now_ps_.load(std::memory_order_relaxed));
  queue.push_back(std::move(r));
  ++total_queued_;
  ++stats_.requests_enqueued;
  stats_.peak_queue_depth = std::max(stats_.peak_queue_depth, total_queued_);
  return true;
}

void shard::settle(request_state& state, bool queued) {
  if (queued) {
    cv_worker_.notify_one();
  } else {
    fail(state, "shard stopped");
  }
}

request_future shard::enqueue(request& r) {
  const std::shared_ptr<request_state> state = attach(r);
  bool queued = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    session_state& s = session_locked(r.session);
    if (!stop_ && s.queue.size() >= config_.session_queue_capacity) {
      ++stats_.enqueue_waits;
      cv_space_.wait(lock, [&] {
        return stop_ || s.moved ||
               s.queue.size() < config_.session_queue_capacity;
      });
      if (s.moved) throw session_moved_error();
    }
    queued = admit_locked(r, &s);
  }
  settle(*state, queued);
  return request_future(state);
}

std::optional<request_future> shard::try_enqueue(request& r) {
  request_future future(attach(r));
  {
    std::lock_guard<std::mutex> lock(mu_);
    session_state& s = session_locked(r.session);
    if (stop_ || s.queue.size() >= config_.session_queue_capacity) {
      ++stats_.requests_rejected;
      return std::nullopt;
    }
    admit_locked(r, &s);  // cannot fail: the shard is running
  }
  cv_worker_.notify_one();
  return future;
}

request_future shard::enqueue_control(request r) {
  // A request arriving with a completion state keeps it: the write-back
  // leg of a cross-shard plan carries the client's original future.
  const std::shared_ptr<request_state> state = attach(r);
  bool queued = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queued = admit_locked(r, nullptr);
  }
  settle(*state, queued);
  return request_future(state);
}

void shard::forward_backlog(session_id id, std::deque<request> backlog) {
  if (backlog.empty()) return;
  bool queued = true;
  {
    std::lock_guard<std::mutex> lock(mu_);
    session_state* s = nullptr;
    if (!stop_) {
      auto it = sessions_.find(id);
      if (it == sessions_.end() || it->second.moved) {
        throw std::invalid_argument("shard: forward to unregistered session");
      }
      s = &it->second;
    }
    // stop_ holds still under mu_: all of the backlog is queued, or none.
    for (request& r : backlog) queued = admit_locked(r, s, /*stamp=*/false);
  }
  if (queued) {
    cv_worker_.notify_one();
    return;
  }
  for (request& r : backlog) fail(*r.completion, "shard stopped");
}

std::vector<std::pair<session_id, std::size_t>> shard::session_backlogs()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<session_id, std::size_t>> out;
  out.reserve(sessions_.size());
  for (const auto& [id, s] : sessions_) {
    if (!s.moved) out.emplace_back(id, s.queue.size());
  }
  return out;
}

shard_stats shard::stats() const {
  std::unique_lock<std::mutex> lock(mu_);
  if (!running_) {
    // No worker exists (never started, or stopped and joined): it is
    // safe to read sys_ from this thread and publish inline.
    const_cast<shard*>(this)->publish_stats_locked();
  } else if (!stop_) {
    // Ask the running worker for a fresh publish and wait for it:
    // the simulated-clock counters live in worker-only state, so the
    // last idle-time publish can be a full burst stale.
    const std::uint64_t ticket = ++stats_pub_requested_;
    cv_worker_.notify_all();
    cv_stats_.wait(lock, [&] { return stop_ || stats_pub_done_ >= ticket; });
  }
  // stop_ while the worker drains: return its shutdown publish.
  shard_stats snap = stats_;
  // Latency histograms are served live, not from the publish we just
  // forced: latency_ is mu_-guarded anyway, so there is no reason to
  // serve anything but current samples.
  snap.session_latency = latency_;
  return snap;
}

bool shard::pop_next_locked(request& out) {
  // Service-internal traffic (migration capture/install, cross-shard
  // write-backs) goes first: it is latency-critical for other shards'
  // progress and never subject to fair-share.
  if (!control_queue_.empty()) {
    out = std::move(control_queue_.front());
    control_queue_.pop_front();
    --total_queued_;
    return true;
  }
  // Stride scheduling across sessions: serve the lowest pass; map
  // iteration order (ascending session id) breaks ties
  // deterministically. FIFO within a session preserves program order —
  // a session whose head is parked on a reservation pops nothing more.
  session_state* best = nullptr;
  for (auto& [id, s] : sessions_) {
    if (s.queue.empty() || s.parked.has_value()) continue;
    // Per-session inflight cap: a tenant whose serial chain already
    // fills its share of the window waits, keeping the released-task
    // mix diverse enough to cover the banks.
    auto inflight_it = session_inflight_.find(id);
    if (inflight_it != session_inflight_.end() &&
        inflight_it->second >= session_max_inflight) {
      continue;
    }
    if (best == nullptr || s.pass < best->pass) best = &s;
  }
  if (best == nullptr) return false;
  out = std::move(best->queue.front());
  best->queue.pop_front();
  --total_queued_;
  virtual_pass_ = best->pass;
  best->pass += 1.0 / best->weight;
  return true;
}

void shard::run() {
  obs::tracer::instance().name_thread(
      "pim-service", "shard " + std::to_string(index_) + " worker");
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    // On-demand publish: a stats() caller is waiting for counters that
    // only this thread can read (the simulated clock lives in sys_).
    if (stats_pub_done_ < stats_pub_requested_) publish_stats_locked();
    if (paused_) {
      publish_stats_locked();
      cv_worker_.wait(lock, [&] {
        return stop_ || !paused_ || stats_pub_done_ < stats_pub_requested_;
      });
      continue;
    }
    // The scheduler's own count of unfinished tasks: read on this
    // thread, which alone submits and ticks.
    const std::size_t outstanding = sys_.runtime().sched().outstanding();
    request req;
    const bool have = outstanding < max_inflight && pop_next_locked(req);
    if (have) {
      lock.unlock();
      cv_space_.notify_all();  // admission space freed
      exec_result result;
      {
        const std::uint64_t flow =
            req.completion ? req.completion->flow : 0;
        obs::span sp(payload_span_names[req.payload.index()], "service",
                     flow);
        if (flow != 0) obs::emit_flow_step(flow, "request", "service");
        result = execute(req);
      }
      lock.lock();
      if (result == exec_result::park_session) {
        auto it = sessions_.find(req.session);
        if (it != sessions_.end() && !it->second.moved &&
            !it->second.parked.has_value()) {
          it->second.parked = std::move(req);
        } else {
          // Control-origin or raced-away session: retried on the next
          // reservation change.
          waiting_on_token_.push_back(std::move(req));
        }
      } else if (result == exec_result::park_token) {
        waiting_on_token_.push_back(std::move(req));
      }
    } else if (outstanding > 0) {
      // Queue drained (or admission-capped): advance simulated time so
      // in-flight tasks make progress toward completion. With nothing
      // queued, yield first so client threads sharing this core can
      // enqueue before the slice is spent on an empty queue.
      const bool queue_empty = total_queued_ == 0;
      lock.unlock();
      if (queue_empty) std::this_thread::yield();
      advance(ticks_per_slice);
      lock.lock();
    } else {
      publish_stats_locked();
      cv_worker_.wait(lock, [&] {
        return stop_ || paused_ || total_queued_ > 0 ||
               stats_pub_done_ < stats_pub_requested_;
      });
    }
  }
  // Shutdown: finish what the runtime already accepted, then fail
  // whatever is still queued so blocked clients wake with an error.
  lock.unlock();
  drain();
  lock.lock();
  fail_all_queued_locked();
  publish_stats_locked();
}

// ---------------------------------------------------------------------------
// Worker-side helpers
// ---------------------------------------------------------------------------

dram::address shard::translate_addr(session_id owner,
                                    const dram::address& a) const {
  if (a.channel >= 0) return a;  // raw physical address: passthrough
  auto sit = remap_.find(owner);
  if (sit != remap_.end()) {
    auto it = sit->second.find(a.row);
    if (it != sit->second.end()) return it->second;
  }
  throw std::runtime_error("vector not resident on this shard");
}

dram::bulk_vector shard::translate(session_id owner,
                                   const dram::bulk_vector& v) const {
  // A handle's size must match its rows: a forged size would have a
  // read build that many bits from one row.
  const bits row_bits = sys_.org().row_bits();
  if (v.size == 0 || (v.size + row_bits - 1) / row_bits != v.rows.size()) {
    throw std::invalid_argument("vector handle: size does not match its rows");
  }
  dram::bulk_vector out;
  out.size = v.size;
  out.rows.reserve(v.rows.size());
  for (const dram::address& a : v.rows) {
    out.rows.push_back(translate_addr(owner, a));
  }
  return out;
}

void shard::translate_task(session_id owner, runtime::pim_task& task) const {
  if (auto* bulk = std::get_if<runtime::bulk_bool_args>(&task.payload)) {
    bulk->a = translate(owner, bulk->a);
    if (bulk->b) *bulk->b = translate(owner, *bulk->b);
    bulk->d = translate(owner, bulk->d);
  } else if (auto* copy = std::get_if<runtime::row_copy_args>(&task.payload)) {
    copy->src = translate_addr(owner, copy->src);
    copy->dst = translate_addr(owner, copy->dst);
  } else if (auto* ms = std::get_if<runtime::row_memset_args>(&task.payload)) {
    ms->dst = translate_addr(owner, ms->dst);
  }
}

void shard::drain_if_hazard(const dram::bulk_vector& phys) {
  const runtime::scheduler& sched = sys_.runtime().sched();
  const bool hazard =
      std::any_of(phys.rows.begin(), phys.rows.end(),
                  [&](const dram::address& a) {
                    return sched.row_busy(sys_.memory().row_key(a));
                  });
  if (!hazard) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.hazard_drains;
  }
  drain();
}

const dram::address& shard::wire_for(const dram::address& target) const {
  const std::vector<dram::address>& rows = wire_.at(target.channel);
  // Spread transfers across landing rows (offset from the target's own
  // bank) so independent rows' copies are not all funneled — and
  // hazard-serialized — through one partner.
  const std::size_t n = rows.size();
  const std::size_t start = static_cast<std::size_t>(target.bank + 1) % n;
  for (std::size_t i = 0; i < n; ++i) {
    const dram::address& w = rows[(start + i) % n];
    if (w.rank != target.rank || w.bank != target.bank) return w;
  }
  throw std::logic_error("shard: no wire row outside the target's bank");
}

void shard::bump_completed(bytes output) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.requests_completed;
  stats_.output_bytes += output;
}

void shard::complete_tracked(session_id session,
                             const std::shared_ptr<request_state>& state,
                             request_result result, bytes output,
                             const char* kind,
                             const runtime::task_report* report) {
  const auto elapsed = std::chrono::steady_clock::now() - state->submitted_at;
  const std::int64_t elapsed_ns = std::max<std::int64_t>(
      0,
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
  const std::uint64_t flow = state->flow;
  if (flow != 0) obs::emit_flow_end(flow, "request", "service");
  complete(*state, std::move(result));
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.requests_completed;
    stats_.output_bytes += output;
    latency_[session].record(static_cast<std::uint64_t>(elapsed_ns));
  }
  // Tail-based retention: the decision is made here, at completion,
  // when the latency is known. Below the threshold (or with the log
  // disabled) this is one relaxed load.
  auto& slow = obs::slow_request_log::instance();
  const std::int64_t threshold = slow.threshold_ns();
  if (threshold > 0 && elapsed_ns >= threshold) {
    obs::slow_request entry;
    entry.flow = flow;
    entry.session = static_cast<std::uint64_t>(session);
    entry.shard = index_;
    entry.kind = kind;
    entry.latency_ns = elapsed_ns;
    if (report != nullptr) entry.report = *report;
    slow.observe(std::move(entry));
  }
}

void shard::submit_psm(session_id stream, const dram::address& phys,
                       bool inbound, std::function<void()> landed) {
  const dram::address& wire = wire_for(phys);
  runtime::pim_task t;
  t.payload = inbound ? runtime::row_copy_args{wire, phys, false}
                      : runtime::row_copy_args{phys, wire, false};
  t.forced_backend = runtime::backend_kind::rowclone;
  t.stream = static_cast<int>(stream);
  t.wire_hop = true;  // cross-shard transfer: exec time is `wire` state
  t.admit_ps = sys_.memory().now_ps();
  t.on_complete = [landed = std::move(landed)](const runtime::task_report&) {
    landed();
  };
  sys_.submit(std::move(t));
}

void shard::stage_vector(session_id stream, const dram::bulk_vector& phys,
                         std::shared_ptr<const bitvector> data,
                         const std::shared_ptr<transfer_group>& group) {
  const bits row_bits = sys_.org().row_bits();
  for (std::size_t i = 0; i < phys.rows.size(); ++i) {
    const dram::address row = phys.rows[i];
    const std::size_t first = std::min(i * row_bits, data->size());
    const std::size_t count = std::min(row_bits, data->size() - first);
    submit_psm(stream, row, /*inbound=*/true,
               [this, row, data, first, count, group] {
                 // The PSM copy just deposited the wire row's
                 // (meaningless) bits; overwrite them with this row's
                 // slice of the payload before any hazard-dependent
                 // successor is released.
                 sys_.memory().row(row).copy_bits(0, *data, first, count);
                 if (group && --group->remaining == 0) group->finalize();
               });
  }
}

std::vector<dram::bulk_vector> shard::acquire_scratch(bits size, int count) {
  auto& bucket = scratch_pool_[{size, count}];
  if (!bucket.empty()) {
    std::vector<dram::bulk_vector> group = std::move(bucket.back());
    bucket.pop_back();
    return group;
  }
  return sys_.allocate(size, count);
}

void shard::release_scratch(bits size, std::vector<dram::bulk_vector> group) {
  scratch_pool_[{size, static_cast<int>(group.size())}].push_back(
      std::move(group));
}

// ---------------------------------------------------------------------------
// Request execution
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Write-back reservations
// ---------------------------------------------------------------------------

bool shard::rows_reserved(const std::vector<std::uint64_t>& keys,
                          std::uint64_t own_token) const {
  if (reserved_rows_.empty()) return false;
  for (std::uint64_t key : keys) {
    auto it = reserved_rows_.find(key);
    if (it == reserved_rows_.end()) continue;
    for (std::uint64_t token : it->second) {
      if (token != own_token) return true;
    }
  }
  return false;
}

bool shard::vector_reserved(session_id owner, const dram::bulk_vector& v,
                            std::uint64_t own_token) const {
  if (reserved_rows_.empty()) return false;
  std::vector<std::uint64_t> keys;
  keys.reserve(v.rows.size());
  for (const dram::address& a : v.rows) {
    keys.push_back(sys_.memory().row_key(translate_addr(owner, a)));
  }
  return rows_reserved(keys, own_token);
}

void shard::place_reservation(session_id owner, std::uint64_t token,
                              const dram::bulk_vector& v) {
  std::vector<std::uint64_t>& keys = reservations_[token];
  for (const dram::address& a : v.rows) {
    const std::uint64_t key = sys_.memory().row_key(translate_addr(owner, a));
    keys.push_back(key);
    reserved_rows_[key].push_back(token);
  }
}

void shard::clear_reservation(std::uint64_t token) {
  auto it = reservations_.find(token);
  if (it == reservations_.end()) return;
  for (std::uint64_t key : it->second) {
    auto rit = reserved_rows_.find(key);
    if (rit == reserved_rows_.end()) continue;
    std::erase(rit->second, token);
    if (rit->second.empty()) reserved_rows_.erase(rit);
  }
  reservations_.erase(it);
}

void shard::unpark_sessions() {
  // A reservation changed: every deferred request gets another shot.
  // Parked session heads return to their queue fronts (FIFO intact);
  // token-waiters return to the control queue front.
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, s] : sessions_) {
    (void)id;
    if (s.parked.has_value()) {
      s.queue.push_front(std::move(*s.parked));
      s.parked.reset();
      ++total_queued_;
    }
  }
  for (auto it = waiting_on_token_.rbegin(); it != waiting_on_token_.rend();
       ++it) {
    control_queue_.push_front(std::move(*it));
    ++total_queued_;
  }
  waiting_on_token_.clear();
  cv_worker_.notify_one();
}

shard::exec_result shard::execute(request& req) {
  try {
    switch (req.payload.index()) {
      case 0: exec_allocate(req, std::get<allocate_args>(req.payload)); break;
      case 1: {
        auto& args = std::get<write_args>(req.payload);
        if (vector_reserved(req.session, args.v, 0)) {
          return exec_result::park_session;
        }
        exec_write(req, args);
        break;
      }
      case 2: {
        auto& args = std::get<read_args>(req.payload);
        if (vector_reserved(req.session, args.v, args.token)) {
          return exec_result::park_session;
        }
        exec_read(req, args);
        break;
      }
      case 3:
        return exec_run_task(req, std::get<run_task_args>(req.payload));
      case 4:
        exec_stage_run(req, std::get<stage_run_args>(req.payload));
        break;
      case 5: {
        auto& args = std::get<stage_in_args>(req.payload);
        if (args.token != 0) {
          auto it = reservations_.find(args.token);
          // The marker must exist (it trails every request queued
          // before the plan) and be the oldest claim on its rows
          // (write-backs of stacked plans land in program order).
          if (it == reservations_.end()) return exec_result::park_token;
          for (std::uint64_t key : it->second) {
            auto rit = reserved_rows_.find(key);
            if (rit != reserved_rows_.end() && !rit->second.empty() &&
                rit->second.front() != args.token) {
              return exec_result::park_token;
            }
          }
          clear_reservation(args.token);
          unpark_sessions();
        }
        exec_stage_in(req, args);
        break;
      }
      case 6: exec_install(req, std::get<install_args>(req.payload)); break;
      case 7: {
        // Migrated-away session: drop its translation state AND return
        // its physical rows to the allocator. By the time the
        // migration coordinator enqueues this, every capture of the
        // session's contents has completed — and those priced exports
        // were hazard-ordered behind the session's in-flight compute —
        // so nothing in flight touches the rows anymore. Without the
        // reclaim, the source shard's capacity leaked on every
        // migrate-away (the load moved, the rows never came back).
        const session_id gone = std::get<forget_args>(req.payload).session;
        auto it = remap_.find(gone);
        if (it != remap_.end()) {
          std::vector<dram::address> rows;
          rows.reserve(it->second.size());
          for (const auto& [virt, phys] : it->second) {
            (void)virt;
            rows.push_back(phys);
          }
          sys_.free_rows(rows);
          remap_.erase(it);
        }
        complete(*req.completion, request_result{});
        bump_completed(0);
        break;
      }
      case 8: {
        const auto& args = std::get<reserve_args>(req.payload);
        place_reservation(req.session, args.token, args.v);
        complete(*req.completion, request_result{});
        bump_completed(0);
        unpark_sessions();  // token-waiters for this marker can proceed
        break;
      }
      case 9: {
        const auto& args = std::get<clear_args>(req.payload);
        if (reservations_.count(args.token) == 0) {
          return exec_result::park_token;
        }
        clear_reservation(args.token);
        complete(*req.completion, request_result{});
        bump_completed(0);
        unpark_sessions();
        break;
      }
      default:
        throw std::logic_error("shard: unknown request payload");
    }
  } catch (const std::exception& e) {
    fail(*req.completion, e.what());
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.requests_failed;
  }
  return exec_result::done;
}

void shard::exec_allocate(request& req, const allocate_args& args) {
  // Pure allocator state: never interacts with in-flight compute, so
  // no drain (the old unconditional wait_all stalled every session's
  // compute behind any one session's allocation).
  const std::vector<dram::bulk_vector> phys =
      sys_.allocate(args.size, args.count);
  const std::size_t per_vec = phys.empty() ? 0 : phys[0].rows.size();
  request_result res;
  res.vectors.reserve(phys.size());
  auto& map = remap_[req.session];
  for (std::size_t k = 0; k < phys.size(); ++k) {
    dram::bulk_vector handle;
    handle.size = args.size;
    handle.rows.reserve(per_vec);
    for (std::size_t i = 0; i < phys[k].rows.size(); ++i) {
      dram::address virt;
      virt.channel = -1;  // marks a virtual handle
      virt.rank = index_;
      virt.row = static_cast<int>(args.virtual_base + k * per_vec + i);
      map[virt.row] = phys[k].rows[i];
      handle.rows.push_back(virt);
    }
    res.vectors.push_back(std::move(handle));
  }
  complete_tracked(req.session, req.completion, std::move(res), 0,
                   "allocate");
}

void shard::exec_write(request& req, const write_args& args) {
  const dram::bulk_vector phys = translate(req.session, args.v);
  drain_if_hazard(phys);
  sys_.write(phys, args.data);
  complete_tracked(req.session, req.completion, request_result{}, 0, "write");
}

void shard::exec_read(request& req, const read_args& args) {
  const dram::bulk_vector phys = translate(req.session, args.v);
  if (!args.priced) {
    drain_if_hazard(phys);
    request_result res;
    res.data = sys_.read(phys);
    complete_tracked(req.session, req.completion, std::move(res), 0, "read");
    return;
  }
  // RowClone-priced export: one PSM copy per row onto the wire rows;
  // each row's bits are copied into the result at its copy's
  // completion instant, so the row-hazard graph — not a drain — orders
  // the export against in-flight compute.
  const bits size = phys.size;
  auto out = std::make_shared<bitvector>(size);
  auto group = std::make_shared<transfer_group>();
  group->remaining = static_cast<int>(phys.rows.size());
  auto completion = req.completion;
  group->finalize = [this, out, completion, size] {
    request_result res;
    res.data = std::move(*out);
    // Priced exports are service-internal (plan fetches, migration
    // captures) — never a client call, so no latency sample.
    complete(*completion, std::move(res));
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.requests_completed;
      stats_.exported_bytes += size / 8;
    }
  };
  const bits row_bits = sys_.org().row_bits();
  for (std::size_t i = 0; i < phys.rows.size(); ++i) {
    const dram::address row = phys.rows[i];
    const std::size_t first = std::min(i * row_bits, size);
    const std::size_t count = std::min(row_bits, size - first);
    submit_psm(req.session, row, /*inbound=*/false,
               [this, row, out, first, count, group] {
                 out->copy_bits(first, sys_.memory().row_or_zero(row), 0,
                                count);
                 if (--group->remaining == 0) group->finalize();
               });
  }
}

shard::exec_result shard::exec_run_task(request& req, run_task_args& args) {
  // Translate a copy: if the task's rows are under a write-back
  // reservation the request parks and re-executes intact later.
  runtime::pim_task task = args.task;
  translate_task(req.session, task);
  task.stream = static_cast<int>(req.session);
  task.flow = req.completion->flow;
  std::vector<std::uint64_t> keys;
  sys_.runtime().sched().collect_rows(task, keys, keys);
  if (rows_reserved(keys, 0)) return exec_result::park_session;
  auto completion = req.completion;
  const session_id session = req.session;
  task.on_complete = [this, completion,
                      session](const runtime::task_report& report) {
    --session_inflight_[session];
    request_result res;
    res.report = report;
    complete_tracked(session, completion, std::move(res),
                     report.output_bytes, "run_task", &report);
  };
  sys_.submit(std::move(task));
  ++session_inflight_[session];
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.tasks_submitted;
  return exec_result::done;
}

void shard::exec_stage_run(request& req, stage_run_args& args) {
  const bits size = args.d.size;
  const int count = args.b ? 3 : 2;
  shard* d_shard = args.d_shard == nullptr ? this : args.d_shard;
  try {
    // Stage every input (fetched from its owner in phase one) into one
    // co-located scratch group: Ambit needs its operand rows in a
    // shared subarray, which is exactly the paper's point — RowClone
    // makes moving operands to the compute site cheap, so the op can
    // always run in-DRAM.
    auto da = std::make_shared<const bitvector>(std::move(args.a));
    std::shared_ptr<const bitvector> db;
    if (args.b) db = std::make_shared<const bitvector>(std::move(*args.b));
    std::vector<dram::bulk_vector> scratch = acquire_scratch(size, count);
    stage_vector(req.session, scratch[0], da, nullptr);
    if (db) stage_vector(req.session, scratch[1], db, nullptr);

    // The compute task RAW-depends on every staging copy (they write the
    // scratch rows it reads), so submitting it immediately still runs it
    // strictly after the transfer has been paid for.
    const dram::bulk_vector scratch_d =
        scratch[static_cast<std::size_t>(count - 1)];
    runtime::pim_task ct = runtime::make_bulk_task(
        args.op, scratch[0], args.b ? &scratch[1] : nullptr, scratch_d);
    ct.stream = static_cast<int>(req.session);
    ct.flow = req.completion ? req.completion->flow : 0;
    auto completion = req.completion;
    ct.on_complete = [this, completion, scratch_d, scratch, size,
                      d_owner = args.d_owner, d_v = args.d, d_shard,
                      token = args.token, guard = std::move(args.guard)](
                         const runtime::task_report& report) mutable {
      bitvector out = sys_.read(scratch_d);
      release_scratch(size, std::move(scratch));
      bump_completed(0);  // this shard's part of the plan is done
      // Phase three: land the result in the destination owner's vector
      // (possibly on another shard) with RowClone pricing. The
      // write-back request carries the client's original completion
      // state, so the client future completes only once the landing
      // has been paid for.
      request wb;
      wb.session = d_owner;
      wb.completion = completion;
      wb.payload = stage_in_args{d_owner, std::move(d_v), std::move(out),
                                 report, token, std::move(guard)};
      d_shard->enqueue_control(std::move(wb));
    };
    sys_.submit(std::move(ct));
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.tasks_submitted;
    ++stats_.cross_plans;
    stats_.staged_bytes +=
        (static_cast<bytes>(size) / 8) * static_cast<bytes>(count - 1);
  } catch (...) {
    // The write-back will never happen: release the destination's
    // reservation so its owner's queue does not stall forever, then
    // let the outer handler fail the client future.
    if (args.token != 0) {
      request cl;
      cl.session = args.d_owner;
      cl.payload = clear_args{args.token};
      d_shard->enqueue_control(std::move(cl));
    }
    throw;
  }
}

void shard::exec_stage_in(request& req, stage_in_args& args) {
  const dram::bulk_vector phys = translate(args.owner, args.v);
  auto group = std::make_shared<transfer_group>();
  group->remaining = static_cast<int>(phys.rows.size());
  group->finalize = [this, completion = req.completion, session = req.session,
                     report = args.report, size = phys.size,
                     guard = std::move(args.guard)] {
    request_result res;
    res.report = report;
    complete_tracked(session, completion, std::move(res), 0, "stage_in");
    std::lock_guard<std::mutex> lock(mu_);
    stats_.staged_bytes += size / 8;
  };
  stage_vector(args.owner, phys,
               std::make_shared<const bitvector>(std::move(args.data)), group);
}

void shard::exec_install(request& req, install_args& args) {
  // Re-allocate the session's groups at group granularity (preserving
  // Ambit co-location), map the virtual handles onto the new physical
  // rows, and stage the captured contents in with RowClone pricing.
  auto& map = remap_[args.session];
  std::size_t flat = 0;
  bytes total = 0;
  int rows_total = 0;
  std::vector<std::pair<dram::bulk_vector, std::shared_ptr<const bitvector>>>
      staged;
  for (const auto& group : args.groups) {
    if (group.empty()) continue;
    const std::vector<dram::bulk_vector> phys =
        sys_.allocate(group[0].size, static_cast<int>(group.size()));
    for (std::size_t k = 0; k < group.size(); ++k) {
      for (std::size_t i = 0; i < group[k].rows.size(); ++i) {
        map[group[k].rows[i].row] = phys[k].rows[i];
      }
      if (flat >= args.data.size()) {
        throw std::logic_error("install: data/groups mismatch");
      }
      staged.emplace_back(phys[k], std::make_shared<const bitvector>(
                                       std::move(args.data[flat])));
      total += group[k].size / 8;
      rows_total += static_cast<int>(phys[k].rows.size());
      ++flat;
    }
  }
  auto group_state = std::make_shared<transfer_group>();
  group_state->remaining = rows_total;
  // Migration machinery, not a client request: completes untracked so
  // the session's percentiles reflect only client-observed latency.
  group_state->finalize = [this, completion = req.completion, total] {
    complete(*completion, request_result{});
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.requests_completed;
    ++stats_.migrations_in;
    stats_.staged_bytes += total;
  };
  if (rows_total == 0) {
    group_state->finalize();
    return;
  }
  for (const auto& [phys, data] : staged) {
    stage_vector(args.session, phys, data, group_state);
  }
}

void shard::drain() { sys_.wait_all(); }

void shard::advance(int ticks) {
  sys_.runtime().sched().advance(ticks);
  // Mirror the simulated clock for client-thread admission stamping.
  // Relaxed is fine: the stamp may lag (the scheduler clamps
  // admit <= submit), it must only never lead the worker's own reads.
  sim_now_ps_.store(sys_.memory().now_ps(), std::memory_order_relaxed);
}

void shard::publish_stats_locked() {
  int live = 0;
  for (const auto& [id, s] : sessions_) {
    (void)id;
    if (!s.moved) ++live;
  }
  stats_.sessions = live;
  stats_.now_ps = sys_.memory().now_ps();
  sim_now_ps_.store(stats_.now_ps, std::memory_order_relaxed);
  stats_.runtime = sys_.runtime().stats();
  // Registry gauges: published at the worker's idle points, so reads
  // see a consistent snapshot without touching the hot path.
  auto& reg = obs::metrics_registry::instance();
  const std::string prefix = "service.shard." + std::to_string(index_) + ".";
  reg.gauge(prefix + "queue_depth")
      .store(static_cast<std::int64_t>(total_queued_),
             std::memory_order_relaxed);
  reg.gauge(prefix + "inflight_tasks")
      .store(static_cast<std::int64_t>(sys_.runtime().sched().outstanding()),
             std::memory_order_relaxed);
  reg.gauge(prefix + "sessions")
      .store(stats_.sessions, std::memory_order_relaxed);
  reg.gauge(prefix + "busy_banks_x1000")
      .store(static_cast<std::int64_t>(
                 stats_.runtime.sched.avg_busy_banks() * 1000.0),
             std::memory_order_relaxed);
  // Every scheduler meter publishes from the same runtime snapshot, in
  // the same mu_ hold — a mid-burst get_metrics can never pair energy
  // from one publish point with ticks from another — and the wait
  // meters partition task_lifetime_ps exactly, so the dashboard can
  // render shares without a remainder bucket.
  for (const sched_meter& m : sched_meters) {
    reg.gauge(prefix + m.name)
        .store(static_cast<std::int64_t>(
                   shown_value(m, stats_.runtime.sched.*m.shard)),
               std::memory_order_relaxed);
  }
  // Every publish satisfies any pending on-demand stats() request.
  stats_pub_done_ = stats_pub_requested_;
  cv_stats_.notify_all();
}

void shard::fail_all_queued_locked() {
  while (!control_queue_.empty()) {
    request r = std::move(control_queue_.front());
    control_queue_.pop_front();
    --total_queued_;
    fail(*r.completion, "shard stopped");
    ++stats_.requests_failed;
  }
  for (request& r : waiting_on_token_) {
    fail(*r.completion, "shard stopped");
    ++stats_.requests_failed;
  }
  waiting_on_token_.clear();
  for (auto& [id, s] : sessions_) {
    (void)id;
    if (s.parked.has_value()) {
      fail(*s.parked->completion, "shard stopped");
      ++stats_.requests_failed;
      s.parked.reset();
    }
    while (!s.queue.empty()) {
      request r = std::move(s.queue.front());
      s.queue.pop_front();
      --total_queued_;
      fail(*r.completion, "shard stopped");
      ++stats_.requests_failed;
    }
  }
  cv_space_.notify_all();
}

}  // namespace pim::service
