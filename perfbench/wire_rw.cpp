// wire_rw: two client threads, each holding one remote_client
// connection over loopback to a 2-shard in-process pim_server. Each
// client keeps a pipelined window of bulk ops over 1-row vectors,
// mixed with a minority of blocking 8 KiB write/read calls.
//
// Why: it is the only workload that crosses the wire, and it uses the
// service for host data movement beside compute, while the tick loop
// does little. Each client owns one session and each session lands on
// its own shard, so the two clients never contend for a shard.
//
// The run confines the process to two vCPUs: every op crosses about
// ten threads (the client, its reader and writer, the server's
// per-connection reader and writer, the shard worker), and across
// vCPUs each handoff is a wakeup whose latency swings with how the
// hypervisor schedules the vCPUs (README, design rule 1).
//
// A round is kRoundOps ops in a fixed sequence of kinds, its bulk op
// types in an order drawn from the seed and shared by both clients;
// operands and write data are drawn per client. Every round is
// therefore charged the same energy, and per-op energy repeats exactly
// however many rounds the host clock allows.
#include <sched.h>

#include <deque>
#include <memory>
#include <thread>

#include "common/digest.h"
#include "common/rng.h"
#include "core/pim_system.h"
#include "dram/ambit.h"
#include "harness.h"
#include "layers.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "service/client.h"

namespace perfbench {
namespace {

using namespace pim;

constexpr int kClients = 2;
constexpr int kGroups = 128;      // 3-vector groups per client
constexpr std::size_t kWindow = 32;  // bulk ops in flight per client
constexpr int kRoundOps = 32;  // write, 15 bulk ops, read, 15 bulk ops
/// Clients wait_all() every kDrainRounds rounds so the client's
/// per-request bookkeeping stays bounded.
constexpr std::uint64_t kDrainRounds = 64;
/// Ops per timed window, both clients together: 128 rounds each,
/// about 0.25 s on a 4-vCPU Xeon VM.
constexpr std::uint64_t kOpsPerWindow = 2 * 128 * kRoundOps;
/// Ops per client in each of the traced run's three blocking replays.
constexpr std::uint64_t kReplayOps = 1024;

service::service_config wire_service_config() {
  service::service_config cfg;
  cfg.shards = kClients;
  cfg.system = shard_config();
  cfg.routing = service::shard_routing::range;
  cfg.sessions_per_shard = 1;  // session i -> shard i
  return cfg;
}

enum class op_kind { bulk, write, read };

struct wire_op {
  op_kind kind = op_kind::bulk;
  dram::bulk_op op = dram::bulk_op::and_op;
  int group = 0;
  int a = 0;
  int b = -1;  // -1: unary
  int d = 0;
};

/// The round template both clients share.
struct round_template {
  std::vector<op_kind> kinds;
  std::vector<dram::bulk_op> ops;
};

/// Every round is the same sequence of op kinds: a write, 15 bulk ops,
/// a read, 15 bulk ops. The bulk ops, five of each binary Boolean op,
/// come in an order drawn from the seed, so per-op energy does not
/// depend on the seed. The blocking calls keep fixed places because
/// the server catches up on the window while the client waits in one:
/// when the seed drew their places too, op_latency_p50_us followed the
/// gap between them (504-698 us over ten seeds on a 4-vCPU Xeon VM,
/// while ops_per_s stayed within 4%).
round_template make_template(std::uint64_t seed) {
  round_template t;
  t.kinds.assign(kRoundOps, op_kind::bulk);
  t.kinds[0] = op_kind::write;
  t.kinds[kRoundOps / 2] = op_kind::read;
  const dram::bulk_op binary[] = {dram::bulk_op::and_op, dram::bulk_op::or_op,
                                  dram::bulk_op::nand_op, dram::bulk_op::nor_op,
                                  dram::bulk_op::xor_op, dram::bulk_op::xnor_op};
  std::vector<dram::bulk_op> bulk;
  for (int i = 0; i < kRoundOps - 2; ++i) bulk.push_back(binary[i % 6]);
  rng gen(seed ^ 0x7e3a11ull);
  for (std::size_t i = bulk.size() - 1; i > 0; --i) {  // Fisher-Yates
    std::swap(bulk[i], bulk[static_cast<std::size_t>(gen.next_below(i + 1))]);
  }
  // The write and read slots carry an op type nothing reads.
  for (std::size_t i = 0, next = 0; i < t.kinds.size(); ++i) {
    t.ops.push_back(t.kinds[i] == op_kind::bulk ? bulk[next++] : dram::bulk_op::and_op);
  }
  return t;
}

/// One client's op sequence: the template's kinds, operands drawn from
/// the client's own generator.
class op_stream {
 public:
  op_stream(const round_template& t, std::uint64_t seed, int client)
      : t_(&t), gen_(seed * 7919ull + static_cast<std::uint64_t>(client) + 1) {}

  /// The next op; fills `data` for writes.
  wire_op next(bitvector& data, bits row_bits) {
    const auto pos = static_cast<std::size_t>(count_++ % kRoundOps);
    wire_op op;
    op.kind = t_->kinds[pos];
    op.op = t_->ops[pos];
    op.group = static_cast<int>(gen_.next_below(kGroups));
    op.a = static_cast<int>(gen_.next_below(3));
    op.b = dram::is_unary(op.op) ? -1 : (op.a + 1) % 3;
    op.d = static_cast<int>(gen_.next_below(3));
    if (op.kind == op_kind::write) data = bitvector::random(row_bits, gen_);
    return op;
  }

  /// Ops drawn so far.
  std::uint64_t count() const { return count_; }

 private:
  const round_template* t_;
  rng gen_;
  std::uint64_t count_ = 0;
};

using group_list = std::vector<std::vector<dram::bulk_vector>>;

/// Initial contents, [client][group * 3 + i].
std::vector<std::vector<bitvector>> make_data(std::uint64_t seed, bits row_bits) {
  std::vector<std::vector<bitvector>> data(kClients);
  rng gen(seed ^ 0xda7aull);
  for (auto& client : data) {
    for (int i = 0; i < kGroups * 3; ++i) {
      client.push_back(bitvector::random(row_bits, gen));
    }
  }
  return data;
}

/// Allocates the client's groups and loads their contents.
group_list load(service::client_api& c, const std::vector<bitvector>& data,
                bits row_bits) {
  group_list groups;
  for (int g = 0; g < kGroups; ++g) {
    scoped_span sp("client.allocate");
    groups.push_back(c.allocate(row_bits, 3));
  }
  for (int g = 0; g < kGroups; ++g) {
    for (int i = 0; i < 3; ++i) {
      scoped_span sp("client.write");
      c.write(groups[static_cast<std::size_t>(g)][static_cast<std::size_t>(i)],
              data[static_cast<std::size_t>(g * 3 + i)]);
    }
  }
  return groups;
}

struct client_state {
  std::unique_ptr<net::remote_client> conn;
  group_list groups;
  std::unique_ptr<op_stream> stream;
  std::uint64_t ops = 0;
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  std::uint64_t failed = 0;
  std::uint64_t read_digest = fnv1a_basis;
};

/// A started server with both clients connected and loaded.
struct wire_system {
  std::unique_ptr<net::pim_server> server;
  std::vector<client_state> clients;

  /// Closes the clients before stopping the server.
  void reset() {
    clients.clear();
    server.reset();
  }
};

wire_system build(const round_template& t, std::uint64_t seed,
                  const std::vector<std::vector<bitvector>>& data) {
  wire_system w;
  net::server_config cfg;
  cfg.service = wire_service_config();
  w.server = std::make_unique<net::pim_server>(cfg);
  w.server->start();
  w.clients.resize(kClients);
  const bits row_bits = shard_config().org.row_bits();
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        client_state& s = w.clients[static_cast<std::size_t>(c)];
        {
          scoped_span sp("client.connect");
          s.conn = std::make_unique<net::remote_client>("127.0.0.1",
                                                        w.server->port());
        }
        s.groups = load(*s.conn, data[static_cast<std::size_t>(c)], row_bits);
        s.stream = std::make_unique<op_stream>(t, seed, c);
      } catch (...) {
        errors[static_cast<std::size_t>(c)] = std::current_exception();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return w;
}

/// One client's closed loop: whole rounds until the deadline.
void client_loop(client_state& s, window_series& series, std::int64_t deadline) {
  const bits row_bits = shard_config().org.row_bits();
  std::deque<std::pair<service::request_future, std::int64_t>> window;
  auto finish_oldest = [&] {
    try {
      scoped_span sp("request_future.get", s.ops);
      window.front().first.get();
    } catch (const std::exception&) {
      ++s.failed;
    }
    series.record(now_ns() - window.front().second);
    window.pop_front();
  };
  // A bulk op completes when its future is first seen ready: after
  // every op the loop retires the ready front of the window, so a
  // sample does not wait for the window to fill.
  auto finish_ready = [&] {
    while (!window.empty() && window.front().first.ready()) finish_oldest();
  };
  bitvector data;
  for (std::uint64_t round = 1;; ++round) {
    for (int i = 0; i < kRoundOps; ++i) {
      const wire_op op = s.stream->next(data, row_bits);
      const auto& g = s.groups[static_cast<std::size_t>(op.group)];
      const auto& a = g[static_cast<std::size_t>(op.a)];
      const auto& d = g[static_cast<std::size_t>(op.d)];
      ++s.ops;
      const std::int64_t t0 = now_ns();
      try {
        if (op.kind == op_kind::bulk) {
          if (window.size() == kWindow) finish_oldest();
          const std::int64_t issued = now_ns();
          scoped_span sp("client.submit_bulk", s.ops);
          window.emplace_back(
              s.conn->submit_bulk(op.op, a,
                                  op.b < 0 ? nullptr : &g[static_cast<std::size_t>(op.b)],
                                  d),
              issued);
        } else if (op.kind == op_kind::write) {
          scoped_span sp("client.write", s.ops);
          s.conn->write(d, data);
          ++s.writes;
        } else {
          scoped_span sp("client.read", s.ops);
          s.read_digest = fnv1a(s.read_digest, s.conn->read(a));
          ++s.reads;
        }
      } catch (const std::exception&) {
        ++s.failed;
      }
      if (op.kind != op_kind::bulk) series.record(now_ns() - t0);
      finish_ready();
    }
    if (round % kDrainRounds == 0 || now_ns() >= deadline) {
      while (!window.empty()) finish_oldest();
      try {
        s.conn->wait_all();  // futures already counted above
      } catch (const std::exception&) {
      }
      if (now_ns() >= deadline) return;
    }
  }
}

struct wire_phase {
  phase_sample sample;
  std::uint64_t attempted = 0;
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  std::uint64_t failed = 0;
  service::service_stats before;
  service::service_stats after;
};

wire_phase run_phase(wire_system& w, double seconds) {
  service::pim_service& svc = w.server->service();
  wire_phase out;
  out.before = svc.stats();
  for (client_state& s : w.clients) s.ops = s.writes = s.reads = s.failed = 0;
  const picoseconds tck = shard_config().timing.tck_ps;
  window_series series(kOpsPerWindow,
                       [&svc, tck] { return shard_cycles(svc.stats(), tck); });
  series.start();
  phase_sample& ps = out.sample;
  ps.start_ns = now_ns();
  const auto deadline = ps.start_ns + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (client_state& s : w.clients) {
    threads.emplace_back([&s, &series, deadline] { client_loop(s, series, deadline); });
  }
  for (std::thread& th : threads) th.join();
  ps.finish(series);
  out.after = svc.stats();

  const bits row_bytes = shard_config().org.row_bits() / 8;
  for (const client_state& s : w.clients) {
    out.attempted += s.ops;
    out.writes += s.writes;
    out.reads += s.reads;
    out.failed += s.failed;
  }
  ps.ops = out.attempted - out.failed;
  ps.sim_cycles = shard_cycles(out.after, tck) - shard_cycles(out.before, tck);
  ps.sim_gbps = gigabytes_per_second(
      out.after.output_bytes - out.before.output_bytes,
      out.after.makespan_ps - out.before.makespan_ps);
  ps.energy_fj = out.after.energy_fj - out.before.energy_fj;
  // The ledger's offchip part plus the host write/read payloads, which
  // cross the DDR pins but which the energy meter does not charge.
  ps.offchip_bytes = out.after.moved_offchip_bytes -
                     out.before.moved_offchip_bytes +
                     (out.writes + out.reads) * row_bytes;
  return out;
}

/// Per-op host time by op class (us), from a blocking replay.
struct class_times {
  std::vector<double> bulk;
  std::vector<double> write;
  std::vector<double> read;

  void add(op_kind k, double us) {
    (k == op_kind::bulk ? bulk : k == op_kind::write ? write : read).push_back(us);
  }
};

struct replay_result {
  std::uint64_t read_digest = fnv1a_basis;
  std::uint64_t final_digest = fnv1a_basis;
  class_times times;
};

/// Direct replay of `ops` ops of one client's stream on one
/// pim_system, one op at a time: each bulk op is waited for, and each
/// write/read follows a drain (the service drains on a row hazard, and
/// a full drain gives the same bits).
replay_result replay_direct(core::pim_system& sys, const round_template& t,
                            std::uint64_t seed, int client,
                            const std::vector<bitvector>& data,
                            std::uint64_t ops) {
  const bits row_bits = sys.org().row_bits();
  group_list groups;
  for (int g = 0; g < kGroups; ++g) groups.push_back(sys.allocate(row_bits, 3));
  for (int g = 0; g < kGroups; ++g) {
    for (int i = 0; i < 3; ++i) {
      scoped_span sp("pim_system.write");
      sys.write(groups[static_cast<std::size_t>(g)][static_cast<std::size_t>(i)],
                data[static_cast<std::size_t>(g * 3 + i)]);
    }
  }
  op_stream stream(t, seed, client);
  replay_result out;
  bitvector buf;
  for (std::uint64_t n = 1; n <= ops; ++n) {
    const wire_op op = stream.next(buf, row_bits);
    const auto& g = groups[static_cast<std::size_t>(op.group)];
    const auto& a = g[static_cast<std::size_t>(op.a)];
    const auto& d = g[static_cast<std::size_t>(op.d)];
    const std::int64_t t0 = now_ns();
    if (op.kind == op_kind::bulk) {
      runtime::task_future f;
      {
        scoped_span sp("pim_system.submit", n);
        f = sys.submit_bulk(op.op, a,
                            op.b < 0 ? nullptr : &g[static_cast<std::size_t>(op.b)], d);
      }
      scoped_span sp("pim_system.wait", n);
      sys.wait(f);
    } else {
      {
        scoped_span sp("pim_system.wait_all", n);
        sys.wait_all();
      }
      if (op.kind == op_kind::write) {
        scoped_span sp("pim_system.write", n);
        sys.write(d, buf);
      } else {
        scoped_span sp("pim_system.read", n);
        out.read_digest = fnv1a(out.read_digest, sys.read(a));
      }
    }
    out.times.add(op.kind, static_cast<double>(now_ns() - t0) / 1e3);
  }
  for (const auto& g : groups) {
    for (const dram::bulk_vector& v : g) {
      out.final_digest = fnv1a(out.final_digest, sys.read(v));
    }
  }
  return out;
}

/// Replay of `ops` ops of one client's stream on host bitvectors, each
/// bulk op computed by its functional semantics (ambit_engine::apply):
/// the reference the wire path must match, independent of the
/// simulator.
replay_result replay_scalar(const round_template& t, std::uint64_t seed,
                            int client, std::vector<bitvector> v,
                            std::uint64_t ops) {
  const bits row_bits = shard_config().org.row_bits();
  op_stream stream(t, seed, client);
  replay_result out;
  bitvector buf;
  for (std::uint64_t n = 0; n < ops; ++n) {
    const wire_op op = stream.next(buf, row_bits);
    auto at = [&](int i) -> bitvector& {
      return v[static_cast<std::size_t>(op.group * 3 + i)];
    };
    if (op.kind == op_kind::bulk) {
      at(op.d) = dram::ambit_engine::apply(op.op, at(op.a), at(op.b < 0 ? op.a : op.b));
    } else if (op.kind == op_kind::write) {
      at(op.d) = buf;
    } else {
      out.read_digest = fnv1a(out.read_digest, at(op.a));
    }
  }
  for (const bitvector& x : v) out.final_digest = fnv1a(out.final_digest, x);
  return out;
}

/// Checks every client's reads and final contents against a scalar
/// replay of its stream.
void check_against_scalar(report& r, wire_system& w, const round_template& t,
                          std::uint64_t seed,
                          const std::vector<std::vector<bitvector>>& data) {
  for (int c = 0; c < kClients; ++c) {
    const auto ci = static_cast<std::size_t>(c);
    const client_state& s = w.clients[ci];
    const replay_result want =
        replay_scalar(t, seed, c, data[ci], s.stream->count());
    r.check(s.read_digest == want.read_digest,
            "wire_rw: client " + std::to_string(c) +
                " read results equal the scalar replay");
    r.check(s.conn->digest() == want.final_digest,
            "wire_rw: client " + std::to_string(c) +
                " final digest equals the scalar replay");
  }
}

/// Blocking replay of `ops` ops of one client's stream through a
/// client_api (loopback or in-process): one op at a time, each timed
/// from the call to its completion.
replay_result replay_blocking(service::client_api& c, const round_template& t,
                              std::uint64_t seed, int client,
                              const std::vector<bitvector>& data,
                              std::uint64_t ops) {
  const bits row_bits = shard_config().org.row_bits();
  const group_list groups = load(c, data, row_bits);
  op_stream stream(t, seed, client);
  replay_result out;
  bitvector buf;
  for (std::uint64_t n = 0; n < ops; ++n) {
    const wire_op op = stream.next(buf, row_bits);
    const auto& g = groups[static_cast<std::size_t>(op.group)];
    const auto& a = g[static_cast<std::size_t>(op.a)];
    const auto& d = g[static_cast<std::size_t>(op.d)];
    const std::int64_t t0 = now_ns();
    if (op.kind == op_kind::bulk) {
      c.submit_bulk(op.op, a,
                    op.b < 0 ? nullptr : &g[static_cast<std::size_t>(op.b)], d)
          .get();
    } else if (op.kind == op_kind::write) {
      c.write(d, buf);
    } else {
      out.read_digest = fnv1a(out.read_digest, c.read(a));
    }
    out.times.add(op.kind, static_cast<double>(now_ns() - t0) / 1e3);
  }
  out.final_digest = c.digest();
  return out;
}

/// Runs `body(client)` for every client on its own thread.
template <typename F>
void per_client(F body) {
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        body(c);
      } catch (...) {
        errors[static_cast<std::size_t>(c)] = std::current_exception();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

class_times merge(const std::vector<replay_result>& results) {
  class_times all;
  for (const replay_result& r : results) {
    all.bulk.insert(all.bulk.end(), r.times.bulk.begin(), r.times.bulk.end());
    all.write.insert(all.write.end(), r.times.write.begin(), r.times.write.end());
    all.read.insert(all.read.end(), r.times.read.begin(), r.times.read.end());
  }
  return all;
}

std::uint64_t failed_ops(const wire_phase& p) {
  const std::uint64_t service_failed =
      p.after.requests_failed - p.before.requests_failed;
  return std::max(p.failed, service_failed) +
         (p.after.requests_rejected - p.before.requests_rejected);
}

/// Confines the calling thread, and every thread it creates from now
/// on, to the first two vCPUs it may run on.
void pin_to_two_cpus() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  cpu_set_t two;
  CPU_ZERO(&two);
  int n = 0;
  for (int c = 0; c < CPU_SETSIZE && n < 2; ++c) {
    if (CPU_ISSET(c, &allowed)) {
      CPU_SET(c, &two);
      ++n;
    }
  }
  if (n == 2) sched_setaffinity(0, sizeof two, &two);
}

}  // namespace

report run_wire_rw(const options& opt) {
  pin_to_two_cpus();
  report r;
  const round_template t = make_template(opt.seed);
  const bits row_bits = shard_config().org.row_bits();
  const auto data = make_data(opt.seed, row_bits);
  span_log& spans = span_log::instance();

  if (!opt.trace) {
    // A torn-down server leaves freed memory in the malloc arenas its
    // threads used, and the next set-up's threads pick those arenas up
    // in no fixed order: on a 4-vCPU Xeon VM, peak_rss_mb read after
    // five set-ups ranged 20.6-31.5 MiB, after one 19.8-20.3 MiB. So the
    // timed phase runs on the first set-up and the rest follow the
    // output checks.
    std::vector<double> setup_s;
    wire_system w;
    setup_s.push_back(time_setup([&] { w = build(t, opt.seed, data); }));
    const wire_phase phase = run_phase(w, opt.seconds);
    r.attempted = phase.attempted;
    r.failed = failed_ops(phase);
    check_against_scalar(r, w, t, opt.seed, data);
    r.note("wire_rw: " + std::to_string(phase.attempted) + " ops, " +
           std::to_string(phase.writes) + " writes, " +
           std::to_string(phase.reads) + " reads");
    for (int i = 1; i < kSetups; ++i) {
      w.reset();
      setup_s.push_back(time_setup([&] { w = build(t, opt.seed, data); }));
    }
    w.reset();
    add_end_to_end(r, phase.sample, setup_s);
    return r;
  }

  // Traced run.
  layer_values v;
  wire_system w = build(t, opt.seed, data);
  const wire_phase plain = run_phase(w, opt.seconds / 2.0);
  const obs::metrics_snapshot reg0 = obs::metrics_registry::instance().snapshot();
  spans.set_enabled(true);
  const wire_phase traced = run_phase(w, opt.seconds / 2.0);
  spans.set_enabled(false);
  const obs::metrics_snapshot reg1 = obs::metrics_registry::instance().snapshot();
  r.attempted = plain.attempted + traced.attempted;
  r.failed = failed_ops(plain) + failed_ops(traced);
  check_against_scalar(r, w, t, opt.seed, data);
  w.reset();

  const double ops = static_cast<double>(traced.sample.ops);
  auto reg_delta = [&](const char* name) {
    auto get = [name](const obs::metrics_snapshot& s) {
      const auto it = s.counters.find(name);
      return it == s.counters.end() ? 0.0 : static_cast<double>(it->second);
    };
    return get(reg1) - get(reg0);
  };
  v["net.tx_bytes_per_op"] = ratio(reg_delta("net.client.tx_bytes"), ops);
  v["net.rx_bytes_per_op"] = ratio(reg_delta("net.client.rx_bytes"), ops);
  v["net.rx_frames_per_op"] = ratio(reg_delta("net.server.rx_frames"), ops);
  v["dram.sim_cycles"] = traced.sample.sim_cycles;
  add_runtime_delta(v, total_runtime(traced.before), total_runtime(traced.after),
                    ops);
  add_service_delta(v, traced.before, traced.after, ops,
                    static_cast<double>(traced.writes + traced.reads));
  v["obs.trace_overhead_ratio"] =
      ratio(plain.sample.ops_per_s(), traced.sample.ops_per_s());

  // The same stream prefix replayed three ways, one op at a time:
  // over loopback, in-process through service_client, and directly on
  // one pim_system per shard. Adjacent differences per op class are
  // the net and service layers' self time.
  std::vector<replay_result> loop(kClients), inproc(kClients), direct(kClients);
  {
    net::server_config cfg;
    cfg.service = wire_service_config();
    net::pim_server server(cfg);
    server.start();
    per_client([&](int c) {
      net::remote_client conn("127.0.0.1", server.port());
      loop[static_cast<std::size_t>(c)] = replay_blocking(
          conn, t, opt.seed, c, data[static_cast<std::size_t>(c)], kReplayOps);
    });
    server.stop();
  }
  {
    service::pim_service svc(wire_service_config());
    svc.start();
    per_client([&](int c) {
      service::service_client client(svc);
      inproc[static_cast<std::size_t>(c)] = replay_blocking(
          client, t, opt.seed, c, data[static_cast<std::size_t>(c)], kReplayOps);
    });
    svc.stop();
  }
  std::vector<std::unique_ptr<core::pim_system>> systems;
  for (int c = 0; c < kClients; ++c) {
    systems.push_back(std::make_unique<core::pim_system>(shard_config()));
  }
  counter_set cmd0;
  for (const auto& s : systems) cmd0.merge(s->memory().counters());
  const std::size_t direct_begin = spans.size();
  spans.set_enabled(true);
  per_client([&](int c) {
    const auto ci = static_cast<std::size_t>(c);
    direct[ci] = replay_direct(*systems[ci], t, opt.seed, c, data[ci],
                               kReplayOps);
  });
  spans.set_enabled(false);
  counter_set cmd1;
  cycles cyc1 = 0;
  for (const auto& s : systems) {
    cmd1.merge(s->memory().counters());
    cyc1 += s->memory().now_cycles();
  }
  for (int c = 0; c < kClients; ++c) {
    const auto ci = static_cast<std::size_t>(c);
    r.check(loop[ci].final_digest == inproc[ci].final_digest &&
                inproc[ci].final_digest == direct[ci].final_digest &&
                loop[ci].read_digest == inproc[ci].read_digest &&
                inproc[ci].read_digest == direct[ci].read_digest,
            "wire_rw: loopback, in-process and direct replays agree");
  }
  const std::vector<span_record> all = spans.snapshot();
  const auto direct_spans = summarize(all, direct_begin, all.size());
  const double replay_ops = static_cast<double>(kReplayOps * kClients);
  const double direct_cycles = static_cast<double>(cyc1);
  v["dram.host_ns_per_cycle"] = ratio(
      total_ns(direct_spans, {"pim_system.wait", "pim_system.wait_all"}),
      direct_cycles);
  const double copies =
      static_cast<double>(direct_spans.at("pim_system.write").count +
                          direct_spans.at("pim_system.read").count);
  v["dram.copy_ns_per_byte"] = ns_per_byte(
      direct_spans, {"pim_system.write", "pim_system.read"},
      copies * static_cast<double>(row_bits / 8));
  add_dram_commands(v, cmd0, cmd1, replay_ops);
  v["runtime.submit_ns_per_task"] = ratio(
      total_ns(direct_spans, {"pim_system.submit"}),
      static_cast<double>(direct_spans.at("pim_system.submit").count));

  const class_times lt = merge(loop), it = merge(inproc), dt = merge(direct);
  v["net.self_us_bulk"] = median(lt.bulk) - median(it.bulk);
  v["net.self_us_write"] = median(lt.write) - median(it.write);
  v["net.self_us_read"] = median(lt.read) - median(it.read);
  v["service.self_us_bulk"] = median(it.bulk) - median(dt.bulk);
  v["service.self_us_write"] = median(it.write) - median(dt.write);
  v["service.self_us_read"] = median(it.read) - median(dt.read);
  spans.write_json(opt.out_dir + "/spans-wire_rw.json");
  add_per_layer(r, v);
  return r;
}

}  // namespace perfbench
