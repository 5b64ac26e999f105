// Service benchmark: shard-count scaling, cross-shard plans, and
// skew-triggered rebalancing of the PIM service front-end.
//
// Three scenarios, all digest-checked against references:
//  - scaling: a fixed population of independent synthetic tenants runs
//    at increasing shard counts; makespan (the slowest shard's clock)
//    should roughly halve per doubling, with digests identical at
//    every shard count.
//  - cross-shard: a fraction of every tenant's ops reads its
//    neighbor's published vector through the two-phase copy-then-
//    compute planner; digests must match the single-shard run and the
//    no-service functional reference bit for bit.
//  - skew: the whole population is routed onto one shard (the overload
//    the range router's old clamping bug produced at scale); a
//    rebalancer thread migrates backlogged sessions away, and the
//    aggregate throughput must beat the no-migration baseline.
// Results land in BENCH_service.json for cross-commit tracking.
#include <atomic>
#include <chrono>
#include <iostream>
#include <memory>
#include <thread>

#include "common/config.h"
#include "common/json_writer.h"
#include "common/table.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/trace.h"
#include "service/synthetic.h"

namespace {

using namespace pim;

core::pim_system_config shard_system_config() {
  core::pim_system_config cfg;
  cfg.org.channels = 2;
  cfg.org.ranks = 1;
  cfg.org.banks = 8;
  cfg.org.subarrays = 8;
  cfg.org.rows = 1024;
  cfg.org.columns = 128;  // 8 KiB rows
  return cfg;
}

std::vector<service::synthetic_config> client_population(
    int clients, int ops, double cross_fraction = 0.0) {
  std::vector<service::synthetic_config> population;
  for (int i = 0; i < clients; ++i) {
    service::synthetic_config c;
    c.ops = ops;
    c.groups = 4;  // 4 bank-striped groups: short per-client critical path
    c.vector_bits = 4 * 8192;
    c.seed = static_cast<std::uint64_t>(1000 + i);
    c.dependent_fraction = 0.1;
    c.cross_fraction = cross_fraction;
    population.push_back(c);
  }
  return population;
}

struct scale_point {
  int shards = 0;
  double makespan_us = 0;
  double aggregate_gbps = 0;
  double wall_ms = 0;
  double avg_busy_banks = 0;
  std::uint64_t tasks = 0;
  std::vector<std::uint64_t> digests;  // per client, in client order
  service::service_stats stats;
};

/// One service configuration for a population — shared by the
/// in-process and net-loopback scenarios, so the wire-tax comparison
/// measures the transport and nothing else (same routing, same
/// admission bounds, same backpressure).
service::service_config make_service_config(
    int shards, const std::vector<service::synthetic_config>& population) {
  service::service_config cfg;
  cfg.shards = shards;
  cfg.system = shard_system_config();
  cfg.routing = service::shard_routing::range;
  cfg.sessions_per_shard = (population.size() +
                            static_cast<std::size_t>(shards) - 1) /
                           static_cast<std::size_t>(shards);
  std::size_t max_ops = 1;
  for (const service::synthetic_config& c : population) {
    max_ops = std::max(max_ops, static_cast<std::size_t>(c.ops));
  }
  cfg.shard.session_queue_capacity = max_ops;  // one full storm, exactly
  return cfg;
}

scale_point run_at(int shards,
                   const std::vector<service::synthetic_config>& population,
                   bool burst) {
  service::pim_service svc(make_service_config(shards, population));
  svc.start();

  const auto wall_start = std::chrono::steady_clock::now();
  const std::vector<service::client_outcome> outcomes =
      service::run_synthetic_fleet(svc, population, burst);
  const auto wall_end = std::chrono::steady_clock::now();
  svc.stop();

  scale_point point;
  point.shards = shards;
  point.stats = svc.stats();
  point.makespan_us = static_cast<double>(point.stats.makespan_ps) / 1e6;
  point.aggregate_gbps = point.stats.aggregate_gbps();
  point.wall_ms = std::chrono::duration<double, std::milli>(wall_end -
                                                            wall_start)
                      .count();
  point.avg_busy_banks = point.stats.avg_busy_banks();
  point.tasks = point.stats.tasks_submitted;
  for (const service::client_outcome& o : outcomes) {
    point.digests.push_back(o.digest);
  }
  return point;
}

/// Skew scenario: every session lands on shard 0 of a 4-shard service
/// and queues its whole storm while the service is paused — a deep
/// skewed backlog. The drain is then measured; with `rebalance` a
/// monitor thread migrates backlogged sessions (and their queues) off
/// the hot spot while it drains.
scale_point run_skewed(const std::vector<service::synthetic_config>&
                           population,
                       bool rebalance) {
  service::service_config cfg;
  cfg.shards = 4;
  cfg.system = shard_system_config();
  cfg.routing = service::shard_routing::range;
  cfg.sessions_per_shard = 4096;  // one giant block: everyone on shard 0
  std::size_t max_ops = 1;
  for (const service::synthetic_config& c : population) {
    max_ops = std::max(max_ops, static_cast<std::size_t>(c.ops));
  }
  cfg.shard.session_queue_capacity = max_ops;
  service::pim_service svc(cfg);
  svc.start();

  const int parties = static_cast<int>(population.size());
  service::start_gate setup_done(parties + 1);
  service::start_gate storm_go(parties + 1);
  service::start_gate admitted(parties + 1);
  std::vector<service::client_outcome> outcomes(population.size());
  std::vector<std::thread> threads;
  threads.reserve(population.size());
  for (std::size_t i = 0; i < population.size(); ++i) {
    threads.emplace_back([&svc, &population, &outcomes, &setup_done,
                          &storm_go, &admitted, i] {
      const service::synthetic_config& config = population[i];
      service::service_client client(svc, config.weight);
      std::vector<dram::bulk_vector> v;
      for (int g = 0; g < config.groups; ++g) {
        const auto group =
            client.allocate(config.vector_bits,
                            service::synthetic_group_vectors);
        v.insert(v.end(), group.begin(), group.end());
      }
      rng data(config.seed ^ 0xa5a5a5a5a5a5a5a5ull);
      for (const dram::bulk_vector& vec : v) {
        client.write(vec, bitvector::random(vec.size, data));
      }
      setup_done.arrive_and_wait();
      storm_go.arrive_and_wait();
      service::client_outcome& outcome = outcomes[i];
      outcome.session = client.id();
      for (const service::synthetic_op& op :
           service::make_synthetic_ops(config)) {
        const dram::bulk_vector* b =
            op.b < 0 ? nullptr : &v[static_cast<std::size_t>(op.b)];
        client.submit_bulk(op.op, v[static_cast<std::size_t>(op.a)], b,
                           v[static_cast<std::size_t>(op.d)]);
        ++outcome.tasks;
        outcome.output_bytes += config.vector_bits / 8;
      }
      admitted.arrive_and_wait();
      outcome.digest = client.digest();
      outcome.shard = client.shard_index();
    });
  }

  setup_done.arrive_and_wait();
  svc.pause();
  storm_go.arrive_and_wait();
  admitted.arrive_and_wait();  // every storm fully queued on shard 0
  const auto wall_start = std::chrono::steady_clock::now();
  svc.resume();
  std::atomic<bool> done{false};
  std::thread monitor;
  if (rebalance) {
    monitor = std::thread([&svc, &done] {
      while (!done.load()) {
        // Threshold 2 + a deep backlog floor: fire on real skew, stay
        // quiet through the end-of-drain counts so sessions are not
        // churned when the move costs more than the remaining work.
        svc.rebalance(/*threshold=*/2.0, /*min_backlog=*/512);
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const auto wall_end = std::chrono::steady_clock::now();
  done.store(true);
  if (monitor.joinable()) monitor.join();
  svc.stop();

  scale_point point;
  point.shards = 4;
  point.stats = svc.stats();
  point.makespan_us = static_cast<double>(point.stats.makespan_ps) / 1e6;
  point.aggregate_gbps = point.stats.aggregate_gbps();
  point.wall_ms = std::chrono::duration<double, std::milli>(wall_end -
                                                            wall_start)
                      .count();
  point.tasks = point.stats.tasks_submitted;
  for (const service::client_outcome& o : outcomes) {
    point.digests.push_back(o.digest);
  }
  return point;
}

/// Net-loopback scenario: the same population, each client an
/// out-of-process-style remote_client over a loopback socket to an
/// in-process pim_server, vs in-process service_clients against an
/// identical service. Digests must match bit for bit; the wall-clock
/// ratio is the wire tax (serialization + syscalls + the extra thread
/// hops), since the simulated work is identical.
struct loopback_point {
  double wall_ms = 0;
  double makespan_us = 0;
  std::uint64_t energy_fj = 0;
  bytes moved_insitu = 0;
  bytes moved_offchip = 0;
  bytes moved_wire = 0;
  std::vector<std::uint64_t> digests;
};

loopback_point run_loopback(
    int shards, const std::vector<service::synthetic_config>& population) {
  net::server_config cfg;
  cfg.service = make_service_config(shards, population);
  net::pim_server server(cfg);
  server.start();

  const int parties = static_cast<int>(population.size());
  service::start_gate storm_gate(parties);
  std::vector<service::client_outcome> outcomes(population.size());
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(population.size());
  for (std::size_t i = 0; i < population.size(); ++i) {
    threads.emplace_back([&server, &population, &outcomes, &storm_gate, i] {
      net::remote_client client("127.0.0.1", server.port(),
                                population[i].weight);
      outcomes[i] =
          service::run_synthetic_client(client, population[i], &storm_gate);
    });
  }
  for (std::thread& t : threads) t.join();
  const auto wall_end = std::chrono::steady_clock::now();

  loopback_point point;
  point.wall_ms =
      std::chrono::duration<double, std::milli>(wall_end - wall_start)
          .count();
  const service::service_stats loop_stats = server.service().stats();
  point.makespan_us = static_cast<double>(loop_stats.makespan_ps) / 1e6;
  point.energy_fj = loop_stats.energy_fj;
  point.moved_insitu = loop_stats.moved_insitu_bytes;
  point.moved_offchip = loop_stats.moved_offchip_bytes;
  point.moved_wire = loop_stats.moved_wire_bytes;
  for (const service::client_outcome& o : outcomes) {
    point.digests.push_back(o.digest);
  }
  server.stop();
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  const config cfg = config::from_args({argv + 1, argv + argc});
  const int clients = static_cast<int>(cfg.get_int("clients", 32));
  const int ops = static_cast<int>(cfg.get_int("ops", 24));
  const int max_shards = static_cast<int>(cfg.get_int("max_shards", 4));
  const double cross_fraction = cfg.get_double("cross_fraction", 0.2);

  std::cout << "=== Sharded PIM service: throughput scaling ===\n\n";
  std::cout << clients << " concurrent clients x " << ops
            << " bulk ops each; range routing; per-shard stack = 2 ch x 8 "
               "banks\n\n";

  const auto population = client_population(clients, ops);
  std::vector<scale_point> points;
  for (int shards = 1; shards <= max_shards; shards *= 2) {
    points.push_back(run_at(shards, population, /*burst=*/true));
  }

  bool digests_match = true;
  for (const scale_point& p : points) {
    if (p.digests != points.front().digests) digests_match = false;
  }
  // The meter charges each task from its own contents, so the same
  // tenant population must cost the same picojoules at every width —
  // and the per-shard meters must sum exactly to the service total.
  bool energy_invariant = points.front().stats.energy_fj > 0;
  bool energy_conserved = true;
  for (const scale_point& p : points) {
    if (p.stats.energy_fj != points.front().stats.energy_fj ||
        p.stats.moved_insitu_bytes != points.front().stats.moved_insitu_bytes ||
        p.stats.moved_offchip_bytes !=
            points.front().stats.moved_offchip_bytes ||
        p.stats.moved_wire_bytes != points.front().stats.moved_wire_bytes) {
      energy_invariant = false;
    }
    std::uint64_t shard_sum = 0;
    for (const service::shard_stats& s : p.stats.shards) {
      shard_sum += s.runtime.sched.energy_fj;
    }
    if (shard_sum != p.stats.energy_fj) energy_conserved = false;
  }
  // Wait-state attribution: at every width, each shard's five typed
  // wait/exec counters must partition its aggregate task lifetime with
  // zero remainder, and the per-shard counters must sum exactly to the
  // service totals. The split itself is timing-dependent (overlap
  // differs at each width) and is deliberately not gated.
  bool waits_partition = points.front().stats.wait_lifetime_ps > 0;
  for (const scale_point& p : points) {
    std::uint64_t sum_shards = 0;
    for (const service::shard_stats& s : p.stats.shards) {
      const auto& sc = s.runtime.sched;
      if (sc.wait_admission_ps + sc.wait_hazard_ps + sc.wait_bank_ps +
              sc.exec_ps + sc.wire_ps !=
          sc.task_lifetime_ps) {
        waits_partition = false;
      }
      sum_shards += sc.task_lifetime_ps;
    }
    if (sum_shards != p.stats.wait_lifetime_ps ||
        p.stats.wait_admission_ps + p.stats.wait_hazard_ps +
                p.stats.wait_bank_ps + p.stats.wait_exec_ps +
                p.stats.wait_wire_ps !=
            p.stats.wait_lifetime_ps) {
      waits_partition = false;
    }
  }

  table t({"shards", "makespan (us)", "aggregate GB/s", "speedup",
           "avg busy banks", "wall (ms)", "digests"});
  for (const scale_point& p : points) {
    const double speedup =
        p.makespan_us > 0 ? points.front().makespan_us / p.makespan_us : 0.0;
    t.row()
        .cell(p.shards)
        .cell(p.makespan_us)
        .cell(p.aggregate_gbps)
        .cell(speedup)
        .cell(p.avg_busy_banks)
        .cell(p.wall_ms)
        .cell(p.digests == points.front().digests ? "match" : "DIFFER");
  }
  t.print(std::cout);

  const scale_point& last = points.back();
  const double final_speedup =
      last.makespan_us > 0 ? points.front().makespan_us / last.makespan_us
                           : 0.0;
  std::cout << "\n" << last.shards << "-shard speedup over 1 shard: "
            << format_double(final_speedup, 2) << "x, digests "
            << (digests_match ? "identical" : "DIFFER") << "\n";
  std::cout << "energy: "
            << format_double(static_cast<double>(last.stats.energy_fj) / 1e3, 1)
            << " pJ, across shard counts "
            << (energy_invariant ? "identical" : "DIFFER")
            << ", per-shard meters sum to total: "
            << (energy_conserved ? "exact" : "MISMATCH") << "\n";
  std::cout << "waits: admission=" << last.stats.wait_admission_ps
            << " hazard=" << last.stats.wait_hazard_ps
            << " bank=" << last.stats.wait_bank_ps
            << " exec=" << last.stats.wait_exec_ps
            << " wire=" << last.stats.wait_wire_ps
            << " ps; partition of " << last.stats.wait_lifetime_ps
            << " ps lifetime: "
            << (waits_partition ? "exact" : "MISMATCH") << "\n";

  // --- Cross-shard plans ---------------------------------------------------
  std::cout << "\n=== Cross-shard two-phase plans ===\n\n";
  const int cross_clients = std::max(4, clients / 2);
  const auto cross_population =
      client_population(cross_clients, ops, cross_fraction);

  std::vector<std::uint64_t> cross_reference;
  for (std::size_t i = 0; i < cross_population.size(); ++i) {
    core::pim_system sys(shard_system_config());
    const service::synthetic_config& neighbor =
        cross_population[(i + 1) % cross_population.size()];
    cross_reference.push_back(
        service::run_synthetic_reference(sys, cross_population[i], &neighbor)
            .digest);
  }

  const scale_point cross_one =
      run_at(1, cross_population, /*burst=*/false);
  const scale_point cross_wide =
      run_at(max_shards, cross_population, /*burst=*/false);
  const bool cross_match = cross_one.digests == cross_reference &&
                           cross_wide.digests == cross_reference;
  std::cout << cross_clients << " clients, " << cross_fraction * 100
            << "% of binary ops read the neighbor's published vector\n";
  std::cout << "  1 shard : " << format_double(cross_one.aggregate_gbps, 2)
            << " GB/s, " << cross_one.stats.cross_plans << " plans\n";
  std::cout << "  " << max_shards << " shards: "
            << format_double(cross_wide.aggregate_gbps, 2) << " GB/s, "
            << cross_wide.stats.cross_plans << " plans, "
            << cross_wide.stats.staged_bytes << " B staged, "
            << cross_wide.stats.exported_bytes << " B exported\n";
  // Staging and write-back run as PSM row copies, which the meter
  // books on the wire interface: a run with cross-shard plans must
  // show wire traffic in the ledger.
  const bool cross_wire_metered =
      cross_wide.stats.cross_plans == 0 ||
      cross_wide.stats.moved_wire_bytes > 0;
  std::cout << "  digests vs functional reference: "
            << (cross_match ? "identical" : "DIFFER") << "; wire ledger "
            << cross_wide.stats.moved_wire_bytes << " B ("
            << (cross_wire_metered ? "metered" : "EMPTY") << ")\n";

  // --- Skewed tenants + rebalancing ----------------------------------------
  // Long-lived tenants with small footprints: the regime where moving
  // a session's rows (RowClone-priced, both directions) is amortized
  // by the compute that follows. Short chains make migration a net
  // loss — movement is the tax the paper builds everything around.
  std::cout << "\n=== Skewed population: rebalancing vs none ===\n\n";
  // Oversubscription is what makes the hot spot hot: many more chains
  // than the shard has banks, so bank contention — not chain latency —
  // bounds the makespan, and spreading sessions across idle shards
  // actually buys parallelism. Chains must be long relative to the
  // session footprint: a PSM copy of an 8 KiB row costs ~10 one-row
  // Ambit ops, both ways, so short-lived tenants are cheaper to leave
  // where they are.
  const int skew_clients = static_cast<int>(cfg.get_int("skew_clients", 24));
  const int skew_ops = static_cast<int>(cfg.get_int("skew_ops", 2000));
  auto skew_population = client_population(skew_clients, skew_ops);
  for (auto& c : skew_population) {
    c.groups = 2;
    c.vector_bits = 8192;  // one row per vector: 6 rows to move per session
  }
  const scale_point skew_base = run_skewed(skew_population, false);
  const scale_point skew_reb = run_skewed(skew_population, true);
  const bool skew_match = skew_base.digests == skew_reb.digests;
  const double skew_gain =
      skew_base.aggregate_gbps > 0
          ? skew_reb.aggregate_gbps / skew_base.aggregate_gbps
          : 0.0;
  std::cout << skew_population.size()
            << " clients all routed to shard 0 of 4:\n";
  std::cout << "  no migration : "
            << format_double(skew_base.aggregate_gbps, 2) << " GB/s, makespan "
            << format_double(skew_base.makespan_us, 1) << " us\n";
  std::cout << "  rebalancing  : "
            << format_double(skew_reb.aggregate_gbps, 2) << " GB/s, makespan "
            << format_double(skew_reb.makespan_us, 1) << " us, "
            << skew_reb.stats.migrations << " migrations\n";
  std::cout << "  gain: " << format_double(skew_gain, 2) << "x, digests "
            << (skew_match ? "identical" : "DIFFER") << "\n";

  // --- Net loopback: the wire tax ------------------------------------------
  // The same tenants, driven through remote_client over loopback TCP
  // against a pim_server, vs in-process service_clients on an
  // identical service. Simulated work is identical, digests must be
  // bit-identical; the wall-clock ratio is what the wire costs
  // (framing, syscalls, response demultiplexing).
  std::cout << "\n=== Net loopback: wire tax vs in-process ===\n\n";
  const int net_clients = std::min(clients, 8);
  const auto net_population = client_population(net_clients, ops);
  const scale_point net_inproc =
      run_at(max_shards, net_population, /*burst=*/false);
  const loopback_point net_loop = run_loopback(max_shards, net_population);
  const bool net_match = net_loop.digests == net_inproc.digests;
  // The transport moves requests, not work: both runs must meter the
  // same picojoules and the same moved-bytes ledger, bit for bit.
  const bool net_energy_match =
      net_loop.energy_fj == net_inproc.stats.energy_fj &&
      net_loop.moved_insitu == net_inproc.stats.moved_insitu_bytes &&
      net_loop.moved_offchip == net_inproc.stats.moved_offchip_bytes &&
      net_loop.moved_wire == net_inproc.stats.moved_wire_bytes &&
      net_loop.energy_fj > 0;
  const double wire_tax =
      net_inproc.wall_ms > 0 ? net_loop.wall_ms / net_inproc.wall_ms : 0.0;
  std::cout << net_clients << " clients x " << ops << " ops, " << max_shards
            << " shards:\n";
  std::cout << "  in-process : " << format_double(net_inproc.wall_ms, 1)
            << " ms wall, makespan "
            << format_double(net_inproc.makespan_us, 1) << " us\n";
  std::cout << "  loopback   : " << format_double(net_loop.wall_ms, 1)
            << " ms wall, makespan "
            << format_double(net_loop.makespan_us, 1) << " us\n";
  std::cout << "  wire tax: " << format_double(wire_tax, 2)
            << "x wall-clock, digests "
            << (net_match ? "identical" : "DIFFER") << ", energy "
            << (net_energy_match ? "identical" : "DIFFER") << "\n";

  // --- Tracing overhead guard ----------------------------------------------
  // The observability layer must be free when off and cheap when on.
  // Same scenario three times per mode, best-of-three wall clock (the
  // minimum filters scheduler noise); digests must be bit-identical
  // in both modes — tracing observes the simulation, never steers it.
  std::cout << "\n=== Tracing overhead guard ===\n\n";
  obs::tracer& tracer = obs::tracer::instance();
  const auto guard_population = client_population(std::min(clients, 16), ops);
  double off_wall = 0.0;
  std::vector<std::uint64_t> off_digests;
  for (int rep = 0; rep < 3; ++rep) {
    const scale_point p = run_at(max_shards, guard_population, /*burst=*/false);
    if (rep == 0 || p.wall_ms < off_wall) off_wall = p.wall_ms;
    off_digests = p.digests;
  }
  // Disabled tracing must record nothing at all: the ~0% claim is
  // structural, not statistical.
  const bool off_silent = tracer.event_count() == 0;

  tracer.enable();
  double on_wall = 0.0;
  std::vector<std::uint64_t> on_digests;
  for (int rep = 0; rep < 3; ++rep) {
    tracer.clear();
    const scale_point p = run_at(max_shards, guard_population, /*burst=*/false);
    if (rep == 0 || p.wall_ms < on_wall) on_wall = p.wall_ms;
    on_digests = p.digests;
  }
  tracer.disable();
  const std::size_t traced_events = tracer.event_count();
  const std::string trace_error = obs::validate(tracer.snapshot());
  tracer.write_chrome_json("TRACE_service.json");
  tracer.clear();

  const bool trace_digests_match = on_digests == off_digests;
  const double overhead = off_wall > 0 ? on_wall / off_wall : 0.0;
  // <5% wall-clock regression traced, plus 1 ms absolute slack so a
  // timer hiccup on a tens-of-ms run cannot fail the gate spuriously.
  const bool overhead_ok = on_wall <= off_wall * 1.05 + 1.0;
  const bool trace_ok = off_silent && trace_digests_match && overhead_ok &&
                        trace_error.empty() && traced_events > 0;
  std::cout << guard_population.size() << " clients x " << ops << " ops, "
            << max_shards << " shards, best of 3 runs per mode:\n";
  std::cout << "  tracing off: " << format_double(off_wall, 2)
            << " ms wall, events recorded: " << (off_silent ? "0" : "SOME")
            << "\n";
  std::cout << "  tracing on : " << format_double(on_wall, 2) << " ms wall, "
            << traced_events << " events, trace "
            << (trace_error.empty() ? "well-formed"
                                    : ("INVALID: " + trace_error))
            << "\n";
  std::cout << "  overhead: " << format_double(overhead, 3) << "x (gate 1.05), "
            << "digests " << (trace_digests_match ? "identical" : "DIFFER")
            << "\n";
  std::cout << "  wrote TRACE_service.json\n";

  // Machine-readable trajectory record: the scaling curve plus the full
  // per-shard telemetry of the widest configuration.
  json_writer json;
  json.begin_object();
  json.key("bench").value("service");
  json.key("clients").value(clients);
  json.key("ops_per_client").value(ops);
  json.key("digests_match").value(digests_match);
  json.key("scaling").begin_array();
  for (const scale_point& p : points) {
    json.begin_object();
    json.key("shards").value(p.shards);
    json.key("makespan_us").value(p.makespan_us);
    json.key("aggregate_gbps").value(p.aggregate_gbps);
    json.key("speedup").value(
        p.makespan_us > 0 ? points.front().makespan_us / p.makespan_us : 0.0);
    json.key("avg_busy_banks").value(p.avg_busy_banks);
    json.key("wall_ms").value(p.wall_ms);
    json.key("tasks").value(p.tasks);
    // Simulated-clock metrics: machine-independent, so cross-machine
    // bench_diff comparisons can ignore the wall-clock fields.
    json.key("total_ticks").value(p.stats.total_ticks);
    json.key("busy_bank_ticks").value(p.stats.busy_bank_ticks);
    // Energy-meter metrics: deterministic like the tick counts, and
    // hard-gated the same way by bench_diff.
    json.key("energy_pj").value(static_cast<double>(p.stats.energy_fj) / 1e3);
    json.key("moved_bytes_insitu").value(p.stats.moved_insitu_bytes);
    json.key("moved_bytes_offchip").value(p.stats.moved_offchip_bytes);
    json.key("moved_bytes_wire").value(p.stats.moved_wire_bytes);
    // Wait-state attribution: the five classes partition the lifetime
    // exactly (hard-gated); the split is advisory for bench_diff.
    json.key("wait_admission_ps").value(p.stats.wait_admission_ps);
    json.key("wait_hazard_ps").value(p.stats.wait_hazard_ps);
    json.key("wait_bank_ps").value(p.stats.wait_bank_ps);
    json.key("exec_ps").value(p.stats.wait_exec_ps);
    json.key("wire_ps").value(p.stats.wait_wire_ps);
    json.key("task_lifetime_ps").value(p.stats.wait_lifetime_ps);
    json.end_object();
  }
  json.end_array();
  json.key("energy").begin_object();
  json.key("invariant_across_shards").value(energy_invariant);
  json.key("shards_sum_to_total").value(energy_conserved);
  json.key("transport_identical").value(net_energy_match);
  json.key("cross_shard_wire_metered").value(cross_wire_metered);
  json.end_object();
  json.key("waits").begin_object();
  json.key("partition_exact").value(waits_partition);
  json.end_object();
  json.key("cross_shard").begin_object();
  json.key("clients").value(cross_clients);
  json.key("cross_fraction").value(cross_fraction);
  json.key("digests_match").value(cross_match);
  json.key("one_shard_gbps").value(cross_one.aggregate_gbps);
  json.key("wide_gbps").value(cross_wide.aggregate_gbps);
  json.key("plans").value(cross_wide.stats.cross_plans);
  json.key("staged_bytes").value(cross_wide.stats.staged_bytes);
  json.key("exported_bytes").value(cross_wide.stats.exported_bytes);
  json.key("wire_ledger_bytes").value(cross_wide.stats.moved_wire_bytes);
  json.end_object();
  json.key("net_loopback").begin_object();
  json.key("clients").value(net_clients);
  json.key("digests_match").value(net_match);
  json.key("inproc_wall_ms").value(net_inproc.wall_ms);
  json.key("loopback_wall_ms").value(net_loop.wall_ms);
  json.key("wire_tax").value(wire_tax);
  json.end_object();
  json.key("skew").begin_object();
  json.key("clients").value(static_cast<int>(skew_population.size()));
  json.key("digests_match").value(skew_match);
  json.key("baseline_gbps").value(skew_base.aggregate_gbps);
  json.key("rebalanced_gbps").value(skew_reb.aggregate_gbps);
  json.key("gain").value(skew_gain);
  json.key("migrations").value(skew_reb.stats.migrations);
  json.end_object();
  json.key("tracing_overhead").begin_object();
  json.key("off_wall_ms").value(off_wall);
  json.key("on_wall_ms").value(on_wall);
  json.key("overhead").value(overhead);
  json.key("events").value(static_cast<std::uint64_t>(traced_events));
  json.key("off_silent").value(off_silent);
  json.key("digests_match").value(trace_digests_match);
  json.key("well_formed").value(trace_error.empty());
  json.end_object();
  json.key("service").begin_object();
  last.stats.to_json(json);
  json.end_object();
  json.end_object();
  json.write_file("BENCH_service.json");
  std::cout << "\nwrote BENCH_service.json\n";

  const bool pass = digests_match && cross_match && skew_match && net_match &&
                    final_speedup >= 2.0 && skew_gain > 1.05 && trace_ok &&
                    energy_invariant && energy_conserved && net_energy_match &&
                    cross_wire_metered && waits_partition;
  return pass ? 0 : 1;
}
