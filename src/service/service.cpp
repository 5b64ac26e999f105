#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "obs/trace.h"
#include "verify/verify.h"

namespace pim::service {

namespace {

/// Emits one histogram's percentile summary as an open-and-closed
/// object under the current key.
void latency_to_json(json_writer& json, const latency_histogram& h) {
  const latency_stats s = h.summary();
  json.begin_object();
  json.key("count").value(s.count);
  json.key("p50_us").value(s.p50_us);
  json.key("p95_us").value(s.p95_us);
  json.key("p99_us").value(s.p99_us);
  json.end_object();
}

/// Emits every scheduler meter, reading each one with `value_of`.
template <typename ValueOf>
void meters_to_json(json_writer& json, ValueOf value_of) {
  for (const sched_meter& m : sched_meters) {
    const std::uint64_t v = value_of(m);
    json.key(m.name);
    if (m.kind == meter_kind::energy) {
      json.value(static_cast<double>(v) / 1000.0);
    } else {
      json.value(v);
    }
  }
}

}  // namespace

void service_stats::to_json(json_writer& json) const {
  json.key("shard_count").value(static_cast<int>(shards.size()));
  json.key("sessions").value(sessions);
  json.key("requests_enqueued").value(requests_enqueued);
  json.key("requests_completed").value(requests_completed);
  json.key("requests_failed").value(requests_failed);
  json.key("requests_rejected").value(requests_rejected);
  json.key("enqueue_waits").value(enqueue_waits);
  json.key("tasks_submitted").value(tasks_submitted);
  json.key("output_bytes").value(output_bytes);
  json.key("makespan_us").value(static_cast<double>(makespan_ps) / 1e6);
  json.key("aggregate_gbps").value(aggregate_gbps());
  json.key("avg_busy_banks").value(avg_busy_banks());
  json.key("sim").begin_object();
  meters_to_json(json, [this](const sched_meter& m) { return this->*m.total; });
  json.key("bank_overlap").value(avg_busy_banks());
  json.key("makespan_ps").value(static_cast<std::int64_t>(makespan_ps));
  json.end_object();
  json.key("hazard_drains").value(hazard_drains);
  json.key("cross_plans").value(cross_plans);
  json.key("staged_bytes").value(staged_bytes);
  json.key("exported_bytes").value(exported_bytes);
  json.key("migrations").value(migrations);
  json.key("latency");
  latency_to_json(json, latency);
  json.key("session_latency").begin_object();
  for (const auto& [id, h] : session_latency) {
    json.key(std::to_string(id));
    latency_to_json(json, h);
  }
  json.end_object();
  json.key("shards").begin_array();
  for (const shard_stats& s : shards) {
    json.begin_object();
    json.key("shard").value(s.shard);
    json.key("sessions").value(s.sessions);
    json.key("requests_enqueued").value(s.requests_enqueued);
    json.key("requests_completed").value(s.requests_completed);
    json.key("requests_failed").value(s.requests_failed);
    json.key("requests_rejected").value(s.requests_rejected);
    json.key("enqueue_waits").value(s.enqueue_waits);
    json.key("peak_queue_depth")
        .value(static_cast<std::uint64_t>(s.peak_queue_depth));
    json.key("tasks_submitted").value(s.tasks_submitted);
    json.key("output_bytes").value(s.output_bytes);
    json.key("now_us").value(static_cast<double>(s.now_ps) / 1e6);
    json.key("hazard_drains").value(s.hazard_drains);
    json.key("cross_plans").value(s.cross_plans);
    json.key("staged_bytes").value(s.staged_bytes);
    json.key("exported_bytes").value(s.exported_bytes);
    json.key("migrations_in").value(s.migrations_in);
    latency_histogram shard_latency;
    for (const auto& [id, h] : s.session_latency) {
      (void)id;
      shard_latency.merge(h);
    }
    json.key("latency");
    latency_to_json(json, shard_latency);
    meters_to_json(json, [&s](const sched_meter& m) {
      return s.runtime.sched.*m.shard;
    });
    json.key("avg_busy_banks").value(s.runtime.sched.avg_busy_banks());
    json.key("peak_busy_banks").value(s.runtime.sched.peak_busy_banks);
    json.key("backends").begin_object();
    for (const auto& [backend, b] : s.runtime.backends) {
      json.key(runtime::to_string(backend)).begin_object();
      json.key("tasks").value(b.tasks);
      json.key("output_bytes").value(b.output_bytes);
      json.key("busy_ps").value(static_cast<std::int64_t>(b.busy_ps));
      json.end_object();
    }
    json.end_object();
    json.end_object();
  }
  json.end_array();
}

pim_service::pim_service(service_config config)
    : config_(config),
      router_(config.shards, config.routing,
              config.sessions_per_shard == 0 ? 1 : config.sessions_per_shard) {
  shards_.reserve(static_cast<std::size_t>(config_.shards));
  for (int i = 0; i < config_.shards; ++i) {
    shards_.push_back(
        std::make_unique<shard>(i, config_.system, config_.shard));
  }
}

pim_service::~pim_service() { stop(); }

void pim_service::start() {
  for (auto& s : shards_) s->start();
}

void pim_service::stop() {
  for (auto& s : shards_) s->stop();
}

void pim_service::pause() {
  for (auto& s : shards_) s->pause();
}

void pim_service::resume() {
  for (auto& s : shards_) s->resume();
}

session_info pim_service::open_session(double weight) {
  // Checked before an id is minted, so a refused weight leaves no
  // routable record behind.
  if (!valid_weight(weight)) {
    throw std::invalid_argument(
        "pim_service: session weight must be finite and positive");
  }
  const session_id id = next_session_.fetch_add(1);
  const int shard_index = router_.route(id);
  {
    std::lock_guard<std::mutex> lock(mu_);
    session_record rec;
    rec.shard = shard_index;
    rec.weight = weight;
    sessions_.emplace(id, std::move(rec));
  }
  shards_[static_cast<std::size_t>(shard_index)]->register_session(id, weight);
  return {id, shard_index};
}

int pim_service::owner_shard(session_id id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    throw std::invalid_argument("pim_service: unknown session");
  }
  return it->second.shard;
}

request_future pim_service::route(request& r, bool pinned) {
  // Retry-on-moved loop: while the session is mid-migration the
  // request waits on migrate_cv_ (only this session's traffic stalls —
  // migration holds the service-wide gate just for its brief detach
  // window, not for the copy itself). A request issued inside a
  // cross-shard plan skips that wait: the plan has pinned its
  // sessions, migration cannot proceed past its pin-quiesce while the
  // pin is held, and waiting here would deadlock against it.
  for (int attempts = 0;; ++attempts) {
    shard* s = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      auto it = sessions_.find(r.session);
      if (it == sessions_.end()) {
        throw std::invalid_argument("pim_service: unknown session");
      }
      if (it->second.migrating && !pinned) {
        migrate_cv_.wait(lock, [&] {
          auto it2 = sessions_.find(r.session);
          return it2 == sessions_.end() || !it2->second.migrating;
        });
        continue;
      }
      s = shards_[static_cast<std::size_t>(it->second.shard)].get();
    }
    try {
      return s->enqueue(r);
    } catch (const session_moved_error&) {
      if (attempts > 1000) {
        // Moved but never re-homed: a migration died mid-flight
        // (service shutdown). Fail rather than spin forever.
        throw std::runtime_error("pim_service: session unavailable");
      }
    }
  }
}

std::vector<dram::bulk_vector> pim_service::allocate(session_id session,
                                                     bits size, int count) {
  const bits row_bits = config_.system.org.row_bits();
  const std::uint64_t rows_needed = (size + row_bits - 1) / row_bits;
  std::uint64_t base = 0;
  // Pin the session for the allocate+record span: a migration slipping
  // between the allocation completing on the old shard and the group
  // being recorded in the directory would capture without the new
  // group and then drop the old shard's translation for it — losing
  // the vectors. The pin makes migration wait the few microseconds.
  std::shared_ptr<void> pin;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto find = [&]() -> session_record& {
      auto it = sessions_.find(session);
      if (it == sessions_.end()) {
        throw std::invalid_argument("pim_service: unknown session");
      }
      return it->second;
    };
    migrate_cv_.wait(lock, [&] { return !find().migrating; });
    session_record& rec = find();
    base = rec.next_virtual;
    rec.next_virtual +=
        rows_needed * static_cast<std::uint64_t>(std::max(count, 0));
    pin = pin_sessions_locked({session});
  }
  request r;
  r.session = session;
  r.payload = allocate_args{size, count, base};
  request_future f = route(r, /*pinned=*/true);
  std::vector<dram::bulk_vector> vectors = f.get().vectors;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sessions_.at(session).groups.push_back(vectors);
  }
  return vectors;
}

request_future pim_service::submit(request r) {
  // Flow stitching: mint the request's flow on the submitting thread
  // (when the caller hasn't supplied one — the socket server does,
  // using the wire request id) so the client span is the arrow's tail.
  const bool minted = obs::on() && r.completion == nullptr;
  if (minted) {
    r.completion = std::make_shared<request_state>();
    r.completion->flow = obs::new_flow();
  }
  const std::uint64_t flow = r.completion ? r.completion->flow : 0;
  obs::span sp("submit", "client", flow);
  if (minted) obs::emit_flow_begin(flow, "request", "client");
  return route(r);
}

std::optional<request_future> pim_service::try_submit(request r) {
  if (obs::on() && r.completion == nullptr) {
    r.completion = std::make_shared<request_state>();
    r.completion->flow = obs::new_flow();
    obs::emit_flow_begin(r.completion->flow, "request", "client");
  }
  for (int attempts = 0; attempts <= 1000; ++attempts) {
    shard* s = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = sessions_.find(r.session);
      if (it == sessions_.end()) {
        throw std::invalid_argument("pim_service: unknown session");
      }
      // Non-blocking contract: a mid-migration session reads as
      // backpressure, not as something to wait out.
      if (it->second.migrating) return std::nullopt;
      s = shards_[static_cast<std::size_t>(it->second.shard)].get();
    }
    try {
      return s->try_enqueue(r);
    } catch (const session_moved_error&) {
      continue;
    }
  }
  return std::nullopt;  // torn migration (service shutdown)
}

std::shared_ptr<void> pim_service::pin_sessions_locked(
    const std::vector<session_id>& ids) {
  struct pin_guard {
    std::vector<std::shared_ptr<std::atomic<int>>> refs;
    ~pin_guard() {
      for (auto& r : refs) r->fetch_sub(1);
    }
  };
  auto guard = std::make_shared<pin_guard>();
  for (session_id id : ids) {
    auto& ref = plan_refs_[id];
    if (ref == nullptr) ref = std::make_shared<std::atomic<int>>(0);
    ref->fetch_add(1);
    guard->refs.push_back(ref);
  }
  return guard;
}

request_future pim_service::submit_cross(session_id issuer, dram::bulk_op op,
                                         const shared_vector& a,
                                         const shared_vector* b,
                                         const shared_vector& d,
                                         std::shared_ptr<request_state>
                                             completion) {
  if (dram::is_unary(op) != (b == nullptr)) {
    throw std::invalid_argument("submit_cross: operand arity mismatch");
  }
  if (obs::on() && completion == nullptr) {
    completion = std::make_shared<request_state>();
    completion->flow = obs::new_flow();
    obs::emit_flow_begin(completion->flow, "request", "client");
  }
  const bool single_owner =
      a.owner == d.owner && (b == nullptr || b->owner == a.owner);
  if (single_owner) {
#if PIM_VERIFY_ENABLED
    // Placement-free structural check (arity, operand shapes): the one
    // owner trivially resolves, so map it to shard 0.
    verify::cross_op vop{op, a,
                         b != nullptr ? std::optional<shared_vector>(*b)
                                      : std::nullopt,
                         d};
    verify::assert_ok(verify::check_cross_plan({vop}, {{a.owner, 0}}));
#endif
    // Fast path: every operand lives with one session, so the task
    // runs directly on its shard exactly like a home submit.
    request r;
    r.session = a.owner;
    r.completion = std::move(completion);
    r.payload = run_task_args{
        runtime::make_bulk_task(op, a.v, b != nullptr ? &b->v : nullptr, d.v)};
    return route(r);
  }

  // Resolve placements and pin every involved session (owners +
  // issuer) in one atomic step: migration marks a session migrating
  // before it quiesces pins, so resolve-then-pin done non-atomically
  // could slip a pin in after the quiesce check and leave the plan
  // holding stale shard pointers.
  int sa = 0;
  int sb = -1;
  int sd = 0;
  double issuer_weight = 1.0;
  int issuer_home = 0;
  std::vector<session_id> pinned{a.owner, d.owner, issuer};
  if (b != nullptr) pinned.push_back(b->owner);
  std::sort(pinned.begin(), pinned.end());
  pinned.erase(std::unique(pinned.begin(), pinned.end()), pinned.end());
  std::shared_ptr<void> guard;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto record_of = [&](session_id id) -> session_record& {
      auto it = sessions_.find(id);
      if (it == sessions_.end()) {
        throw std::invalid_argument("pim_service: unknown session");
      }
      return it->second;
    };
    migrate_cv_.wait(lock, [&] {
      for (session_id id : pinned) {
        if (record_of(id).migrating) return false;
      }
      return true;
    });
    sa = record_of(a.owner).shard;
    if (b != nullptr) sb = record_of(b->owner).shard;
    sd = record_of(d.owner).shard;
    issuer_home = record_of(issuer).shard;
    issuer_weight = record_of(issuer).weight;
    guard = pin_sessions_locked(pinned);
  }

#if PIM_VERIFY_ENABLED
  {
    // Every owner just resolved through the session map — the real
    // remap the plan will be staged against.
    std::map<session_id, int> placement{{a.owner, sa}, {d.owner, sd}};
    if (b != nullptr) placement.emplace(b->owner, sb);
    verify::cross_op vop{op, a,
                         b != nullptr ? std::optional<shared_vector>(*b)
                                      : std::nullopt,
                         d};
    verify::assert_ok(verify::check_cross_plan({vop}, placement));
  }
#endif

  // Two-phase plan. Pick the executing shard by operand bytes moved
  // across shards: remote inputs must be staged in, and a remote
  // destination costs a write-back.
  std::vector<int> candidates{sa, sd};
  if (b != nullptr) candidates.push_back(sb);
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  auto cost_of = [&](int s) {
    bytes c = 0;
    if (sa != s) c += a.v.size / 8;
    if (b != nullptr && sb != s) c += b->v.size / 8;
    if (sd != s) c += d.v.size / 8;
    return c;
  };
  int exec = candidates.front();
  for (int s : candidates) {
    if (cost_of(s) < cost_of(exec)) exec = s;
  }

  // Reserve the destination rows at the plan's position in the owner's
  // program: requests queued after this point that touch d park until
  // the write-back lands, while earlier ones proceed untouched.
  //
  // plan_order_mu_ serializes the reserve->fetch section across plans:
  // a fetch can then only park on reservations of plans whose fetches
  // already finished — whose write-backs depend on worker progress
  // alone — so plan waits form chains, never deadlock cycles.
  std::unique_lock<std::mutex> plan_order(plan_order_mu_);
  const std::uint64_t token = next_token_.fetch_add(1);
  shard* d_home = shards_[static_cast<std::size_t>(sd)].get();
  {
    request res;
    res.session = d.owner;
    res.payload = reserve_args{token, d.v};
    route(res, /*pinned=*/true);
  }

  try {
    // Phase one: RowClone-priced export of every input from its
    // owner's shard, ordered behind the owner's queued work. Inputs
    // already resident on the exec shard are fetched too — reading
    // them later, at stage_run execution, could park on a younger
    // plan's reservation outside this ordered section and recreate
    // the deadlock cycle the section exists to prevent.
    auto fetch = [&](const shared_vector& sv) {
      request r;
      r.session = sv.owner;
      r.payload = read_args{sv.v, /*priced=*/true, token};
      return route(r, /*pinned=*/true);
    };
    request_future fa = fetch(a);
    std::optional<request_future> fb;
    if (b != nullptr) fb = fetch(*b);

    stage_run_args sr;
    sr.a = fa.get().data;
    if (b != nullptr) sr.b = fb->get().data;
    plan_order.unlock();  // fetches done: later plans may proceed

    // Phase two (+ the write-back phase three) run on the exec shard's
    // worker; the issuer needs an admission queue there.
    shard* exec_shard = shards_[static_cast<std::size_t>(exec)].get();
    if (issuer_home != exec) {
      exec_shard->register_session(issuer, issuer_weight);
    }

    request r;
    r.session = issuer;
    r.completion = std::move(completion);
    sr.op = op;
    sr.d_owner = d.owner;
    sr.d = d.v;
    sr.d_shard = d_home;
    sr.token = token;
    sr.guard = std::move(guard);
    r.payload = std::move(sr);
    return exec_shard->enqueue(r);
  } catch (...) {
    // The plan died before a write-back could clear the reservation —
    // release it so the destination owner's queue does not stall.
    request cl;
    cl.session = d.owner;
    cl.payload = clear_args{token};
    d_home->enqueue_control(std::move(cl));
    throw;
  }
}

void pim_service::migrate_session(session_id session, int shard_index) {
  if (shard_index < 0 || shard_index >= shard_count()) {
    throw std::invalid_argument("migrate_session: bad shard index");
  }
  // Mark the session migrating FIRST: new cross-shard plans resolving
  // any involved session wait on the flag, so the pin-quiesce below is
  // bounded — without it, a client issuing back-to-back plans could
  // keep the pin count nonzero forever and wedge every rebalance.
  session_record before;
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      auto it = sessions_.find(session);
      if (it == sessions_.end()) {
        throw std::invalid_argument("pim_service: unknown session");
      }
      if (it->second.migrating) {  // concurrent migration: wait, retry
        migrate_cv_.wait(lock,
                         [&] { return !sessions_.at(session).migrating; });
        continue;
      }
      before = it->second;
      if (before.shard == shard_index) return;
      it->second.migrating = true;
      break;
    }
  }

  shard& src = *shards_[static_cast<std::size_t>(before.shard)];
  shard& dst = *shards_[static_cast<std::size_t>(shard_index)];

  // On any failure past this point, un-mark the session so waiting
  // clients fail fast instead of hanging.
  auto unmark = [&] {
    {
      std::lock_guard<std::mutex> lock(mu_);
      sessions_.at(session).migrating = false;
    }
    migrate_cv_.notify_all();
  };
  detached_session det;
  try {
    // Quiesce cross-shard plans that pinned this session before the
    // flag went up (their staged state references current placements);
    // the flag keeps new ones from starting, so the wait is bounded by
    // worker progress.
    for (;;) {
      std::shared_ptr<std::atomic<int>> ref;
      {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = plan_refs_.find(session);
        if (it != plan_refs_.end()) ref = it->second;
      }
      if (ref == nullptr || ref->load() == 0) break;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    // Re-snapshot AFTER the quiesce: a pinned in-flight allocate may
    // have recorded a new vector group since the flag went up, and a
    // capture taken from the stale snapshot would miss it — the forget
    // below would then destroy the group's only translation.
    {
      std::lock_guard<std::mutex> lock(mu_);
      before = sessions_.at(session);
    }

    // Freeze admission for the session and take its unexecuted
    // backlog; only this session's traffic waits during the copy.
    det = src.detach_session(session);

    // Capture every vector's contents through the control channel:
    // priced reads are ordered behind the session's in-flight compute
    // by the row-hazard graph, so no drain stalls the other sessions.
    std::vector<request_future> captures;
    for (const auto& group : before.groups) {
      for (const dram::bulk_vector& v : group) {
        request r;
        r.session = session;
        r.payload = read_args{v, /*priced=*/true};
        captures.push_back(src.enqueue_control(std::move(r)));
      }
    }
    std::vector<bitvector> data;
    data.reserve(captures.size());
    for (const request_future& f : captures) data.push_back(f.get().data);

    // Install on the destination and wait for it to land BEFORE
    // committing anything irreversible: if the destination cannot host
    // the data (allocator exhaustion — migrated-away rows are never
    // reclaimed), the session must roll back to its source intact.
    // The install is enqueued (control channel, popped before any
    // session traffic) before the session is registered: a stale
    // client enqueue racing a migrate-back must never find the session
    // registered without its translation at least queued ahead of it.
    request inst;
    inst.session = session;
    inst.payload = install_args{session, before.groups, std::move(data)};
    request_future installed = dst.enqueue_control(std::move(inst));
    dst.register_session(session, det.weight);
    try {
      installed.get();
    } catch (...) {
      // Roll back: revive the session on the source (its remap is
      // untouched — no forget was sent) and return the backlog.
      src.register_session(session, det.weight);
      src.forward_backlog(session, std::move(det.backlog));
      throw;
    }

    // Commit: forward the backlog in FIFO order with the client
    // futures intact (the install's staged rows hazard-order its
    // compute behind the data landing; new client traffic is held back
    // by the migrating flag until after the backlog, so program order
    // survives the move), drop the old shard's translation state (its
    // physical rows are not reclaimed — the Ambit allocator has no
    // free — but its load is), and re-home the session.
    dst.forward_backlog(session, std::move(det.backlog));
    request forget;
    forget.session = session;
    forget.payload = forget_args{session};
    request_future forgotten = src.enqueue_control(std::move(forget));
    {
      std::lock_guard<std::mutex> lock(mu_);
      sessions_.at(session).shard = shard_index;
    }
    unmark();
    forgotten.get();  // the old shard's state is gone, not in flight
  } catch (...) {
    unmark();
    throw;
  }
}

int pim_service::rebalance(double threshold, std::size_t min_backlog) {
  if (shard_count() < 2) return 0;
  // Load metric: *backlogged sessions*, not queued bytes. A single
  // tenant's deep serial chain is latency-bound wherever it lives —
  // counting its queue depth as load would make the policy chase it
  // from shard to shard (paying the RowClone transfer tax on every
  // hop) without ever building bank parallelism anywhere. What skew
  // actually costs is oversubscription: many tenants' chains contending
  // for one shard's banks. So the policy equalizes tenant counts.
  std::vector<std::size_t> counts(static_cast<std::size_t>(shard_count()));
  std::vector<std::vector<std::pair<session_id, std::size_t>>> backlogs(
      static_cast<std::size_t>(shard_count()));
  std::size_t total = 0;
  for (int i = 0; i < shard_count(); ++i) {
    backlogs[static_cast<std::size_t>(i)] =
        shards_[static_cast<std::size_t>(i)]->session_backlogs();
    auto& candidates = backlogs[static_cast<std::size_t>(i)];
    std::erase_if(candidates, [&](const auto& e) {
      if (e.second < std::max<std::size_t>(1, min_backlog)) return true;
      std::lock_guard<std::mutex> lock(mu_);
      auto it = sessions_.find(e.first);
      // Only sessions that call this shard home (plan-issuer
      // registrations do not) and are not already moving.
      return it == sessions_.end() || it->second.shard != i ||
             it->second.migrating;
    });
    std::sort(candidates.begin(), candidates.end(),
              [](const auto& x, const auto& y) { return x.second > y.second; });
    counts[static_cast<std::size_t>(i)] = candidates.size();
    total += candidates.size();
  }

  // Plan the whole batch from one snapshot, then execute the moves
  // concurrently. Sequential migration would let each receiver drain
  // every forwarded backlog before the next arrived — sessions must
  // land together for the receiving shard's banks to see parallel
  // chains.
  std::vector<std::pair<session_id, int>> plan;
  bool triggered = false;
  for (;;) {
    const auto hot_it = std::max_element(counts.begin(), counts.end());
    const auto cold_it = std::min_element(counts.begin(), counts.end());
    const int hot = static_cast<int>(hot_it - counts.begin());
    const int cold = static_cast<int>(cold_it - counts.begin());
    const double avg =
        static_cast<double>(total) / static_cast<double>(shard_count());
    // Move only while it actually spreads tenants: the donor must stay
    // at least as loaded as the receiver afterwards (or sessions just
    // ping-pong and pay the transfer tax on every hop), and must be
    // genuinely oversubscribed — a handful of latency-bound chains is
    // not worth spreading.
    if (hot == cold || *hot_it < *cold_it + 2 ||
        *hot_it <= static_cast<std::size_t>(shard_count())) {
      break;
    }
    // The threshold gates *triggering*; once tripped, the plan runs to
    // balance (stopping the batch at threshold x mean would leave the
    // hot spot hot and trickle the rest out one migration at a time).
    if (!triggered && static_cast<double>(*hot_it) <= threshold * avg) break;
    triggered = true;
    auto& candidates = backlogs[static_cast<std::size_t>(hot)];
    if (candidates.empty()) break;
    plan.emplace_back(candidates.front().first, cold);
    candidates.erase(candidates.begin());
    --*hot_it;
    ++*cold_it;
  }
  if (plan.empty()) return 0;

  std::atomic<int> moved{0};
  std::vector<std::thread> movers;
  movers.reserve(plan.size());
  for (const auto& [victim, target] : plan) {
    movers.emplace_back([this, victim = victim, target = target, &moved] {
      try {
        migrate_session(victim, target);
        moved.fetch_add(1);
      } catch (const std::exception&) {
        // The session raced away (stopped shard, concurrent move):
        // skip it; the next rebalance pass sees fresh loads.
      }
    });
  }
  for (std::thread& t : movers) t.join();
  return moved.load();
}

service_stats pim_service::stats() const {
  service_stats total;
  total.shards.reserve(shards_.size());
  for (const auto& s : shards_) {
    total.shards.push_back(s->stats());
    const shard_stats& snap = total.shards.back();
    total.requests_enqueued += snap.requests_enqueued;
    total.requests_completed += snap.requests_completed;
    total.requests_failed += snap.requests_failed;
    total.requests_rejected += snap.requests_rejected;
    total.enqueue_waits += snap.enqueue_waits;
    total.tasks_submitted += snap.tasks_submitted;
    total.output_bytes += snap.output_bytes;
    total.makespan_ps = std::max(total.makespan_ps, snap.now_ps);
    for (const sched_meter& m : sched_meters) {
      total.*m.total += snap.runtime.sched.*m.shard;
    }
    total.hazard_drains += snap.hazard_drains;
    total.cross_plans += snap.cross_plans;
    total.staged_bytes += snap.staged_bytes;
    total.exported_bytes += snap.exported_bytes;
    total.migrations += snap.migrations_in;
    for (const auto& [id, h] : snap.session_latency) {
      total.session_latency[id].merge(h);
      total.latency.merge(h);
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  total.sessions = static_cast<int>(sessions_.size());
  return total;
}

}  // namespace pim::service
