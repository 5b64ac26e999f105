#include "runtime/scheduler.h"

#include <algorithm>
#include <stdexcept>

#include "obs/trace.h"

namespace pim::runtime {

namespace {

// wait()/wait_all() watchdog, in simulated cycles.
constexpr cycles kMaxWaitCycles = 200'000'000;

}  // namespace

scheduler::scheduler(dram::memory_system& mem, dram::ambit_engine& ambit,
                     dram::rowclone_engine& rowclone, scheduler_config config)
    : mem_(mem),
      ambit_(ambit),
      rowclone_(rowclone),
      config_(config),
      energy_model_(mem.org(), ambit.compiler().rich_decoder()) {
  host_pool_.slots = std::max(1, config_.host_slots);
  ndp_pool_.slots = std::max(1, config_.ndp_slots);
}

void scheduler::collect_rows(const pim_task& task,
                             std::vector<std::uint64_t>& reads,
                             std::vector<std::uint64_t>& writes) const {
  switch (task.kind()) {
    case task_kind::bulk_bool: {
      const auto& args = std::get<bulk_bool_args>(task.payload);
      for (const dram::address& a : args.a.rows) {
        reads.push_back(mem_.row_key(a));
      }
      if (args.b) {
        for (const dram::address& a : args.b->rows) {
          reads.push_back(mem_.row_key(a));
        }
      }
      for (const dram::address& a : args.d.rows) {
        writes.push_back(mem_.row_key(a));
      }
      break;
    }
    case task_kind::row_copy: {
      const auto& args = std::get<row_copy_args>(task.payload);
      reads.push_back(mem_.row_key(args.src));
      writes.push_back(mem_.row_key(args.dst));
      break;
    }
    case task_kind::row_memset: {
      const auto& args = std::get<row_memset_args>(task.payload);
      writes.push_back(mem_.row_key(args.dst));
      break;
    }
    case task_kind::host_kernel:
      break;  // opaque kernel: no rows in the simulated DRAM
  }
}

bool scheduler::row_busy(std::uint64_t key) const {
  auto writer = last_writer_.find(key);
  if (writer != last_writer_.end() && active_.count(writer->second) != 0) {
    return true;
  }
  auto readers = readers_.find(key);
  return readers != readers_.end() &&
         std::any_of(readers->second.begin(), readers->second.end(),
                     [this](task_id t) { return active_.count(t) != 0; });
}

task_future scheduler::submit(pim_task task, backend_kind where,
                              core::offload_decision decision) {
  validate(task, where);
  const task_id id = next_id_++;
  node n;
  n.where = where;
  n.future = std::make_shared<task_future::shared_state>();
  collect_rows(task, n.reads, n.writes);

  task_report& report = n.future->report;
  report.id = id;
  report.stream = task.stream;
  report.kind = task.kind();
  report.where = where;
  report.decision = decision;
  report.submit_ps = mem_.now_ps();
  // Admission stamp: the service reads the sim clock from a relaxed
  // mirror on the client thread, so it can lag — never lead — the
  // worker's clock. Clamp so the timestamps always telescope (the
  // wait-state partition is exact by construction); an unstamped task
  // was never queued and gets a zero admission segment.
  report.admit_ps = task.admit_ps > 0
                        ? std::min(task.admit_ps, report.submit_ps)
                        : report.submit_ps;
  report.wire_hop = task.wire_hop;
  switch (task.kind()) {
    case task_kind::bulk_bool:
      report.output_bytes = std::get<bulk_bool_args>(task.payload).d.size / 8;
      break;
    case task_kind::row_copy:
    case task_kind::row_memset:
      report.output_bytes = mem_.org().row_bytes();
      break;
    case task_kind::host_kernel:
      report.output_bytes =
          std::get<host_kernel_args>(task.payload).profile.memory_traffic;
      break;
  }
  // Per-op attribution lane: the output row's (channel, bank), the
  // same lane the tracer draws this task on. Host/NDP work keeps the
  // (-1, -1) default.
  if (const dram::address* dst = output_address(task)) {
    report.channel = dst->channel;
    report.bank = dst->bank;
  }

  // Row-granular hazards against still-active earlier tasks:
  // RAW (read a pending write), WAW (write a pending write),
  // WAR (write a pending read).
  auto depend_on = [&](task_id dep, std::uint64_t key) {
    const auto found = active_.find(dep);
    if (found == active_.end()) return;  // completed: no hazard
    // One edge per dependency: this task is at the back of `dep`'s
    // dependents only if an earlier row appended it. The first row to
    // carry a hazard against `dep` wins: that is the row reported as
    // blocked_row if `dep` turns out to be the release edge (the last
    // hazard to clear).
    std::vector<task_id>& dependents = found->second.dependents;
    if (!dependents.empty() && dependents.back() == id) return;
    dependents.push_back(id);
    n.dep_rows.emplace_back(dep, key);
  };
  auto writer_of = [&](std::uint64_t key) {
    auto it = last_writer_.find(key);
    if (it != last_writer_.end()) depend_on(it->second, key);
  };
  for (std::uint64_t key : n.reads) writer_of(key);
  for (std::uint64_t key : n.writes) {
    writer_of(key);
    auto it = readers_.find(key);
    if (it != readers_.end()) {
      for (task_id reader : it->second) depend_on(reader, key);
    }
  }
  n.unmet_deps = static_cast<int>(n.dep_rows.size());
  for (std::uint64_t key : n.writes) {
    last_writer_[key] = id;
    readers_[key].clear();
  }
  for (std::uint64_t key : n.reads) {
    // Prune completed readers so hot read-only rows (a bitmap column
    // scanned by every query) keep their hazard lists short.
    std::vector<task_id>& list = readers_[key];
    std::erase_if(list,
                  [this](task_id t) { return active_.count(t) == 0; });
    list.push_back(id);
  }

  n.task = std::move(task);
  task_future future(n.future);
  const bool ready = n.unmet_deps == 0;
  active_.emplace(id, std::move(n));
  ++outstanding_;
  ++stats_.submitted;
  if (ready) {
    release(id);
  } else {
    ++stats_.hazard_deferred;
  }
  return future;
}

void scheduler::validate(const pim_task& task, backend_kind where) const {
  // Reject invalid tasks before any scheduler state exists for them: a
  // throw from release() — possibly ticks later, for a hazard-deferred
  // task — would strand the entry in the hazard tables and wedge every
  // dependent behind it.
  if (task.kind() == task_kind::bulk_bool) {
    // An empty vector would produce no command sequences and therefore
    // no completion callback — the future would never resolve.
    const auto& args = std::get<bulk_bool_args>(task.payload);
    if (args.d.size == 0 || args.d.rows.empty()) {
      throw std::invalid_argument("scheduler: empty bulk vector");
    }
  }
  switch (where) {
    case backend_kind::ambit: {
      if (task.kind() != task_kind::bulk_bool) {
        throw std::invalid_argument(
            "scheduler: only bulk_bool tasks run on the Ambit backend");
      }
      const auto& args = std::get<bulk_bool_args>(task.payload);
      ambit_.validate(args.op, args.a, args.b ? &*args.b : nullptr, args.d);
      break;
    }
    case backend_kind::rowclone:
      if (task.kind() == task_kind::row_copy) {
        const auto& args = std::get<row_copy_args>(task.payload);
        rowclone_.validate_copy(args.src, args.dst, args.same_subarray);
      } else if (task.kind() == task_kind::row_memset) {
        rowclone_.validate_memset(
            std::get<row_memset_args>(task.payload).dst);
      } else {
        throw std::invalid_argument(
            "scheduler: only row copy/memset tasks run on RowClone");
      }
      break;
    case backend_kind::ndp_logic:
    case backend_kind::host:
      // The host fallback computes bulk ops functionally; it still
      // needs coherent operand shapes.
      if (task.kind() == task_kind::bulk_bool) {
        const auto& args = std::get<bulk_bool_args>(task.payload);
        if (dram::is_unary(args.op) != !args.b.has_value()) {
          throw std::invalid_argument("scheduler: operand arity mismatch");
        }
        if (args.a.size != args.d.size ||
            (args.b && args.b->size != args.a.size)) {
          throw std::invalid_argument("scheduler: vector size mismatch");
        }
      }
      break;
  }
}

void scheduler::release(task_id id) {
  node& n = active_.at(id);
  n.released = true;
  n.future->report.release_ps = mem_.now_ps();
  n.future->report.start_ps = mem_.now_ps();
  ++in_flight_;
  stats_.peak_in_flight =
      std::max(stats_.peak_in_flight, static_cast<int>(in_flight_));

  switch (n.where) {
    case backend_kind::ambit: {
      auto& args = std::get<bulk_bool_args>(n.task.payload);
      ambit_.execute(args.op, args.a, args.b ? &*args.b : nullptr, args.d,
                     [this, id] { completed_fifo_.push_back(id); });
      break;
    }
    case backend_kind::rowclone: {
      auto done = [this, id](picoseconds) { completed_fifo_.push_back(id); };
      if (n.task.kind() == task_kind::row_copy) {
        const auto& args = std::get<row_copy_args>(n.task.payload);
        if (args.same_subarray) {
          rowclone_.copy_fpm(args.src, args.dst, done);
        } else {
          rowclone_.copy_psm(args.src, args.dst, done);
        }
      } else {
        const auto& args = std::get<row_memset_args>(n.task.payload);
        rowclone_.memset_row(args.dst, args.ones, done);
      }
      break;
    }
    case backend_kind::ndp_logic:
      start_on_executor(ndp_pool_, id);
      break;
    case backend_kind::host:
      start_on_executor(host_pool_, id);
      break;
  }
}

void scheduler::start_on_executor(executor_pool& pool, task_id id) {
  if (static_cast<int>(pool.running.size()) < pool.slots) {
    node& n = active_.at(id);
    const core::offload_decision& d = n.future->report.decision;
    const picoseconds service = std::max<picoseconds>(
        n.where == backend_kind::ndp_logic ? d.pim_time : d.host_time, 0);
    n.future->report.start_ps = mem_.now_ps();
    pool.running.emplace_back(id, mem_.now_ps() + service);
  } else {
    pool.queue.push_back(id);
  }
}

void scheduler::apply_host_result(const node& n) {
  switch (n.task.kind()) {
    case task_kind::bulk_bool: {
      const auto& args = std::get<bulk_bool_args>(n.task.payload);
      const bitvector va = ambit_.read_vector(args.a);
      const bitvector vb = args.b ? ambit_.read_vector(*args.b) : va;
      ambit_.write_vector(args.d, dram::ambit_engine::apply(args.op, va, vb));
      break;
    }
    case task_kind::row_copy: {
      const auto& args = std::get<row_copy_args>(n.task.payload);
      mem_.row(args.dst) = mem_.row_or_zero(args.src);
      break;
    }
    case task_kind::row_memset: {
      const auto& args = std::get<row_memset_args>(n.task.payload);
      mem_.row(args.dst) = bitvector(mem_.org().row_bits(), args.ones);
      break;
    }
    case task_kind::host_kernel:
      break;  // modeled analytically; no simulated-DRAM side effects
  }
}

const dram::address* scheduler::output_address(const pim_task& task) {
  switch (task.kind()) {
    case task_kind::bulk_bool: {
      const auto& args = std::get<bulk_bool_args>(task.payload);
      return args.d.rows.empty() ? nullptr : &args.d.rows.front();
    }
    case task_kind::row_copy:
      return &std::get<row_copy_args>(task.payload).dst;
    case task_kind::row_memset:
      return &std::get<row_memset_args>(task.payload).dst;
    case task_kind::host_kernel:
      return nullptr;
  }
  return nullptr;
}

std::uint32_t scheduler::trace_lane(const node& n) {
  obs::tracer& t = obs::tracer::instance();
  if (trace_pid_ == 0) trace_pid_ = t.alloc_sim_pid();

  // Host/NDP work has no DRAM destination; it shares one executor
  // lane. Everything else lands on the lane of its output row.
  const dram::address* dst = output_address(n.task);
  if (dst == nullptr) {
    if (trace_exec_lane_ == UINT32_MAX) {
      trace_exec_lane_ = t.register_track(trace_pid_, 0, trace_name_,
                                          "executors", obs::clock_domain::sim);
    }
    return trace_exec_lane_;
  }
  const std::uint64_t key = (static_cast<std::uint64_t>(
                                 static_cast<std::uint32_t>(dst->channel))
                             << 32) |
                            static_cast<std::uint32_t>(dst->bank);
  auto it = trace_lanes_.find(key);
  if (it != trace_lanes_.end()) return it->second;
  const std::uint32_t lane = t.register_track(
      trace_pid_, 1 + static_cast<int>(trace_lanes_.size()), trace_name_,
      "ch " + std::to_string(dst->channel) + " bank " +
          std::to_string(dst->bank),
      obs::clock_domain::sim);
  trace_lanes_.emplace(key, lane);
  return lane;
}

void scheduler::complete(task_id id) {
  node& n = active_.at(id);
  n.future->report.complete_ps = mem_.now_ps();
  n.future->done = true;
  {
    // Wait-state meter: fold this task's typed lifetime segments into
    // the aggregate counters. The timestamps telescope, so the five
    // segments partition complete - admit with zero remainder.
    const task_report& r = n.future->report;
    const task_report::segments seg = r.lifetime();
    stats_.wait_admission_ps += static_cast<std::uint64_t>(seg.admission);
    stats_.wait_hazard_ps += static_cast<std::uint64_t>(seg.hazard);
    stats_.wait_bank_ps += static_cast<std::uint64_t>(seg.bank);
    stats_.exec_ps += static_cast<std::uint64_t>(seg.exec);
    stats_.wire_ps += static_cast<std::uint64_t>(seg.wire);
    stats_.task_lifetime_ps +=
        static_cast<std::uint64_t>(r.complete_ps - r.admit_ps);
  }
  // Energy is stamped exactly where ticks are: before the completion
  // hook and the per-task callback, so every report that crosses a
  // shard boundary or the wire already carries its charge. One relaxed
  // load when metering is off; the charge itself is integer fJ so the
  // meter totals below are an exact partition target for any
  // downstream attribution.
  if (obs::metering_on()) {
    task_report& r = n.future->report;
    const obs::task_energy e = energy_model_.charge(n.task, r);
    r.energy_fj = e.energy_fj;
    r.insitu_bytes = e.insitu_bytes;
    r.offchip_bytes = e.offchip_bytes;
    r.wire_bytes = e.wire_bytes;
    stats_.energy_fj += e.energy_fj;
    stats_.insitu_bytes += e.insitu_bytes;
    stats_.offchip_bytes += e.offchip_bytes;
    stats_.wire_bytes += e.wire_bytes;
  }
  if (obs::on()) {
    const task_report& r = n.future->report;
    const std::uint32_t lane = trace_lane(n);
    static const char* const backend_names[] = {"ambit", "rowclone",
                                                "ndp_logic", "host"};
    obs::emit_complete(lane, backend_names[static_cast<int>(n.where)], "task",
                       r.start_ps, r.complete_ps - r.start_ps, n.task.flow,
                       "output_bytes",
                       static_cast<std::int64_t>(r.output_bytes));
    if (n.task.flow != 0) {
      // The flow point shares the X event's track and start time so
      // Perfetto binds the arrow to the slice.
      obs::trace_event e;
      e.kind = obs::event_kind::flow_step;
      e.track = lane;
      e.name = "request";
      e.cat = "flow";
      e.ts = r.start_ps;
      e.flow = n.task.flow;
      obs::tracer::instance().record(e);
    }
    // Busy-fraction timeline on the simulated clock: one sample at
    // every completion edge (busy_banks only changes at task edges).
    obs::trace_event c;
    c.kind = obs::event_kind::counter;
    c.track = lane;
    c.name = "busy_banks";
    c.ts = mem_.now_ps();
    c.arg = static_cast<std::int64_t>(mem_.busy_banks());
    obs::tracer::instance().record(c);
  }
  if (completion_hook_) completion_hook_(n.future->report);
  // The per-task callback must run before dependents release: a
  // dependent ordered behind this task by a row hazard may read rows
  // the callback is about to finalize (staged transfer payloads).
  if (n.task.on_complete) n.task.on_complete(n.future->report);

  const std::vector<task_id> dependents = std::move(n.dependents);
  active_.erase(id);
  --outstanding_;
  --in_flight_;
  ++stats_.completed;
  for (task_id dep : dependents) {
    auto it = active_.find(dep);
    if (it == active_.end()) continue;
    if (--it->second.unmet_deps == 0 && !it->second.released) {
      // This completion is the dependent's release edge: the hazard
      // that cleared last. Stamping it here (same simulated instant as
      // the dependent's release_ps) makes critical-path chains
      // contiguous — release_ps(dependent) == complete_ps(blocker).
      node& d = it->second;
      task_report& dr = d.future->report;
      dr.blocked_on = id;
      for (const auto& [dep_id, row] : d.dep_rows) {
        if (dep_id == id) {
          dr.blocked_row = row;
          break;
        }
      }
      release(dep);
    }
  }
}

void scheduler::process_completions() {
  while (!completed_fifo_.empty()) {
    std::vector<task_id> batch = std::move(completed_fifo_);
    completed_fifo_.clear();
    for (task_id id : batch) complete(id);
  }
}

void scheduler::tick() {
  mem_.tick();
  ++stats_.ticks;
  const int busy = static_cast<int>(mem_.busy_banks());
  stats_.busy_bank_ticks += static_cast<std::uint64_t>(busy);
  stats_.peak_busy_banks = std::max(stats_.peak_busy_banks, busy);

  // Executor pools: finish expired runs, then pull queued work into
  // the freed slots.
  const picoseconds now = mem_.now_ps();
  for (executor_pool* pool : {&host_pool_, &ndp_pool_}) {
    if (pool->running.empty()) continue;  // work queues only behind runs
    for (std::size_t i = 0; i < pool->running.size();) {
      if (pool->running[i].second <= now) {
        const task_id id = pool->running[i].first;
        pool->running.erase(pool->running.begin() +
                            static_cast<std::ptrdiff_t>(i));
        apply_host_result(active_.at(id));
        completed_fifo_.push_back(id);
      } else {
        ++i;
      }
    }
    while (!pool->queue.empty() &&
           static_cast<int>(pool->running.size()) < pool->slots) {
      const task_id id = pool->queue.front();
      pool->queue.pop_front();
      start_on_executor(*pool, id);
    }
  }

  process_completions();
}

cycles scheduler::next_event_cycle() const {
  cycles next = mem_.next_event_cycle();
  // tick() finishes a run in the first cycle whose time reaches its
  // deadline.
  const picoseconds tck = mem_.timing().tck_ps;
  for (const executor_pool* pool : {&host_pool_, &ndp_pool_}) {
    for (const auto& [id, deadline] : pool->running) {
      next = std::min(next, (deadline + tck - 1) / tck);
    }
  }
  return std::max(next, mem_.now_cycles() + 1);
}

template <typename Done>
bool scheduler::run_until(cycles limit, Done done) {
  while (!done()) {
    const cycles now = mem_.now_cycles();
    if (now >= limit) return false;
    const cycles next = std::min(next_event_cycle(), limit);
    // Nothing changes before `next`: busy_banks() holds, so the skipped
    // cycles add to the stats exactly what ticking them would.
    const auto gap = static_cast<std::uint64_t>(next - now - 1);
    stats_.ticks += gap;
    stats_.busy_bank_ticks += gap * mem_.busy_banks();
    mem_.jump_to(next - 1);
    tick();
  }
  return true;
}

bool scheduler::idle() const { return outstanding_ == 0 && mem_.idle(); }

void scheduler::wait(const task_future& future) {
  if (!future.valid()) {
    throw std::invalid_argument("scheduler::wait: empty future");
  }
  if (!run_until(mem_.now_cycles() + kMaxWaitCycles,
                 [&] { return future.ready(); })) {
    throw std::runtime_error("scheduler::wait: watchdog expired");
  }
}

void scheduler::wait_all() {
  if (!run_until(mem_.now_cycles() + kMaxWaitCycles,
                 [this] { return idle(); })) {
    throw std::runtime_error("scheduler::wait_all: watchdog expired");
  }
}

void scheduler::advance(cycles n) {
  run_until(mem_.now_cycles() + n, [this] { return idle(); });
}

}  // namespace pim::runtime
