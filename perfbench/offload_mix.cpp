// offload_mix: six tenant streams driven by one thread through
// pim_system::submit / wait — two database bitmap-scan chains, two
// graph frontier updates, two consumer streams of RowClone memset/copy
// plus host and logic-layer kernels (the shape of bench_runtime's
// tenant mix).
//
// Why: it is the only workload in which the tick loop, the hazard DAG
// and the host/NDP executor pools do all the work with no service
// threads — the paper's logic-layer path. No service, net or query
// code runs, and the loop is a pure function of the simulated clock,
// so its simulated metrics repeat exactly.
//
// Each stream runs a closed loop: at most kWindow tasks in flight, and
// no more than kLead tasks ahead of the slowest stream, so all six
// finish the same number of rounds. A round is kPeriod tasks per
// stream whose kinds repeat while their operands are drawn from the
// seed, so every round is charged the same energy.
#include <algorithm>
#include <array>
#include <deque>
#include <memory>

#include "common/digest.h"
#include "common/rng.h"
#include "core/pim_system.h"
#include "harness.h"
#include "layers.h"

namespace perfbench {
namespace {

using namespace pim;

constexpr int kStreams = 6;
constexpr std::uint64_t kPeriod = 4;  // tasks per stream per round
constexpr int kWindow = 4;            // tasks in flight per stream
constexpr std::uint64_t kLead = 2 * kPeriod;
constexpr int kRowsPerVector = 4;     // 32 KiB vectors
constexpr int kVectorsPerStream = 16;
/// sim_gbps covers the first kSimRounds rounds of the timed phase;
/// they finish before the host clock can stop the loop (kMinRounds).
constexpr std::uint64_t kSimRounds = 16;
constexpr std::uint64_t kMinRounds = kSimRounds + 8;
/// Tasks per timed window: 100 rounds, about 0.3 s on a 4-vCPU Xeon VM.
constexpr std::uint64_t kOpsPerWindow = 100 * kPeriod * kStreams;

core::pim_system_config mix_config() {
  core::pim_system_config cfg;
  cfg.org.channels = 2;
  cfg.org.ranks = 1;
  cfg.org.banks = 8;
  cfg.org.subarrays = 8;
  cfg.org.rows = 1024;
  cfg.org.columns = 128;  // 8 KiB rows
  cfg.runtime.sched.host_slots = 2;
  return cfg;
}

enum class tenant { db, graph, consumer };

tenant tenant_of(int stream) {
  static const tenant kinds[] = {tenant::db, tenant::graph, tenant::consumer};
  return kinds[stream % 3];
}

/// One task of a stream, by vector index within the stream's group.
struct task_shape {
  runtime::task_kind kind = runtime::task_kind::bulk_bool;
  dram::bulk_op op = dram::bulk_op::and_op;
  int a = 0;
  int b = -1;  // -1: unary
  int d = 0;
  int row = 0;          // copy / memset row within the vector
  bool ones = false;    // memset value
  bool streaming = false;  // kernel: streaming (NDP) or cache-friendly (host)
};

/// Draws a stream's tasks from the seed; the kind at each position of
/// a round is fixed, the operands vary.
class stream_gen {
 public:
  stream_gen(std::uint64_t seed, int stream)
      : kind_(tenant_of(stream)), gen_(seed * 1000003ull + static_cast<std::uint64_t>(stream)) {}

  task_shape next() {
    const std::uint64_t pos = count_++ % kPeriod;
    task_shape t;
    switch (kind_) {
      case tenant::db: {
        // column bitmaps 0..13, res0 = 14, res1 = 15: scan chains
        // whose XOR step folds a result back into a column.
        constexpr int cols = kVectorsPerStream - 2;
        if (pos == 0) {
          x_ = pick(cols);
          t = bulk(dram::bulk_op::and_op, x_, pick_other(cols, x_), cols);
        } else if (pos == 1) {
          t = bulk(dram::bulk_op::or_op, cols, pick(cols), cols + 1);
        } else if (pos == 2) {
          t = bulk(dram::bulk_op::xor_op, x_, cols + 1, x_);
        } else {
          t = bulk(dram::bulk_op::not_op, cols, -1, cols + 1);
        }
        break;
      }
      case tenant::graph: {
        // frontier 0, visited 1, neighbor sets 2..13, next 14,
        // scratch 15
        constexpr int next = kVectorsPerStream - 2;
        if (pos == 0) {
          t = bulk(dram::bulk_op::or_op, 0, 2 + pick(next - 2), next);
        } else if (pos == 1) {
          t = bulk(dram::bulk_op::or_op, 1, next, 1);
        } else if (pos == 2) {
          t = bulk(dram::bulk_op::xor_op, next, 1, 0);
        } else {
          t = bulk(dram::bulk_op::nand_op, 0, 1, next + 1);
        }
        break;
      }
      case tenant::consumer: {
        if (pos == 0) {
          t.kind = runtime::task_kind::row_memset;
          t.d = pick(kVectorsPerStream);
          t.row = pick(kRowsPerVector);
          t.ones = gen_.next_bool(0.5);
        } else if (pos == 1) {
          t.kind = runtime::task_kind::row_copy;
          t.a = pick(kVectorsPerStream);
          t.d = pick_other(kVectorsPerStream, t.a);
          t.row = pick(kRowsPerVector);
        } else {
          t.kind = runtime::task_kind::host_kernel;
          t.streaming = pos == 2;
        }
        break;
      }
    }
    return t;
  }

 private:
  static task_shape bulk(dram::bulk_op op, int a, int b, int d) {
    task_shape t;
    t.op = op;
    t.a = a;
    t.b = b;
    t.d = d;
    return t;
  }
  int pick(int n) { return static_cast<int>(gen_.next_below(static_cast<std::uint64_t>(n))); }
  int pick_other(int n, int not_this) {
    const int v = pick(n - 1);
    return v >= not_this ? v + 1 : v;
  }

  tenant kind_;
  rng gen_;
  std::uint64_t count_ = 0;
  int x_ = 0;  // the db chain's column, reused by its XOR step
};

runtime::pim_task make_task(const task_shape& t,
                            const std::vector<dram::bulk_vector>& v,
                            int stream) {
  runtime::pim_task task;
  switch (t.kind) {
    case runtime::task_kind::bulk_bool: {
      const auto ai = static_cast<std::size_t>(t.a);
      const auto di = static_cast<std::size_t>(t.d);
      return runtime::make_bulk_task(
          t.op, v[ai], t.b < 0 ? nullptr : &v[static_cast<std::size_t>(t.b)],
          v[di], stream);
    }
    case runtime::task_kind::row_memset:
      task.payload = runtime::row_memset_args{
          v[static_cast<std::size_t>(t.d)].rows[static_cast<std::size_t>(t.row)],
          t.ones};
      break;
    case runtime::task_kind::row_copy:
      task.payload = runtime::row_copy_args{
          v[static_cast<std::size_t>(t.a)].rows[static_cast<std::size_t>(t.row)],
          v[static_cast<std::size_t>(t.d)].rows[static_cast<std::size_t>(t.row)],
          true};
      break;
    case runtime::task_kind::host_kernel: {
      // bench_runtime's two consumer kernels: a streaming decode the
      // offload model sends to the logic layer, and a cache-friendly
      // blit it keeps on the host.
      core::kernel_profile p;
      p.name = t.streaming ? "texture_decode" : "color_blit";
      p.instructions = 1'000'000;
      p.memory_traffic = t.streaming ? 2 * mib : 256 * kib;
      p.host_cache_hit = t.streaming ? 0.0 : 0.8;
      task.payload = runtime::host_kernel_args{p};
      break;
    }
  }
  task.stream = stream;
  return task;
}

using stream_data = std::vector<std::vector<bitvector>>;  // [stream][vector]

stream_data make_data(std::uint64_t seed, bits size) {
  stream_data data(kStreams);
  rng gen(seed ^ 0x5eed0ff10adull);
  for (auto& vectors : data) {
    for (int i = 0; i < kVectorsPerStream; ++i) {
      vectors.push_back(bitvector::random(size, gen));
    }
  }
  return data;
}

/// A constructed, loaded system and its stream state.
struct mix_system {
  std::unique_ptr<core::pim_system> sys;
  std::vector<std::vector<dram::bulk_vector>> vectors;  // [stream]
  std::vector<stream_gen> gens;
  std::array<std::uint64_t, kStreams> cursor{};  // tasks submitted
  std::array<int, kStreams> inflight{};
};

mix_system build(std::uint64_t seed, const stream_data& data) {
  mix_system m;
  m.sys = std::make_unique<core::pim_system>(mix_config());
  const bits size = m.sys->org().row_bits() * kRowsPerVector;
  for (int s = 0; s < kStreams; ++s) {
    m.vectors.push_back(m.sys->allocate(size, kVectorsPerStream));
    for (int i = 0; i < kVectorsPerStream; ++i) {
      scoped_span sp("pim_system.write");
      m.sys->write(m.vectors.back()[static_cast<std::size_t>(i)],
                   data[static_cast<std::size_t>(s)][static_cast<std::size_t>(i)]);
    }
    m.gens.emplace_back(seed, s);
  }
  return m;
}

std::uint64_t digest_all(const core::pim_system& sys,
                         const std::vector<std::vector<dram::bulk_vector>>& vectors) {
  std::uint64_t h = fnv1a_basis;
  for (const auto& group : vectors) {
    for (const dram::bulk_vector& v : group) {
      scoped_span sp("pim_system.read");
      h = fnv1a(h, sys.read(v));
    }
  }
  return h;
}

/// Per-round charges, accumulated as tasks complete.
struct round_charge {
  std::uint64_t energy_fj = 0;
  bytes offchip = 0;
};

struct mix_phase {
  phase_sample sample;
  std::uint64_t rounds = 0;
};

/// Runs whole rounds until `seconds` of host time have passed (and at
/// least kMinRounds), then lets every stream finish the same round.
mix_phase run_phase(mix_system& m, double seconds, report& r) {
  core::pim_system& sys = *m.sys;
  mix_phase out;
  phase_sample& ps = out.sample;
  const std::uint64_t base = m.cursor[0];
  const std::uint64_t fj0 = sys.runtime().stats().sched.energy_fj;
  const std::uint64_t off0 = sys.runtime().stats().sched.offchip_bytes;
  const cycles cyc0 = sys.memory().now_cycles();
  const picoseconds ps0 = sys.memory().now_ps();
  window_series series(kOpsPerWindow, [&sys] {
    return static_cast<double>(sys.memory().now_cycles());
  });
  series.start();
  ps.start_ns = now_ns();
  const auto deadline = ps.start_ns + static_cast<std::int64_t>(seconds * 1e9);
  std::uint64_t target = UINT64_MAX;  // tasks per stream to reach

  // Issue times of in-flight tasks, by task number mod the ring size
  // (at most kStreams * kWindow tasks are in flight).
  std::array<std::int64_t, 64> issue_ns{};
  static_assert(kStreams * kWindow <= 64);
  std::vector<round_charge> rounds;
  std::uint64_t reported_fj = 0;
  bytes prefix_bytes = 0;
  picoseconds prefix_end = ps0;
  std::uint64_t issued = 0;
  std::deque<std::pair<runtime::task_future, std::uint64_t>> fifo;

  for (;;) {
    if (target == UINT64_MAX && now_ns() >= deadline) {
      const std::uint64_t most = *std::max_element(m.cursor.begin(), m.cursor.end());
      const std::uint64_t n =
          std::max((most - base + kPeriod - 1) / kPeriod, kMinRounds);
      target = base + n * kPeriod;
    }
    const std::uint64_t slowest = *std::min_element(m.cursor.begin(), m.cursor.end());
    for (int s = 0; s < kStreams; ++s) {
      const auto si = static_cast<std::size_t>(s);
      while (m.inflight[si] < kWindow && m.cursor[si] < target &&
             m.cursor[si] < slowest + kLead) {
        const std::uint64_t task_no = issued++;
        const std::uint64_t round = (m.cursor[si] - base) / kPeriod;
        if (round >= rounds.size()) rounds.resize(round + 1);
        runtime::pim_task task = make_task(m.gens[si].next(), m.vectors[si], s);
        task.on_complete = [&, task_no, round, si](const runtime::task_report& rep) {
          series.record(now_ns() - issue_ns[task_no % issue_ns.size()]);
          reported_fj += rep.energy_fj;
          rounds[round].energy_fj += rep.energy_fj;
          rounds[round].offchip += rep.offchip_bytes;
          if (round < kSimRounds) {
            prefix_bytes += rep.output_bytes;
            prefix_end = std::max(prefix_end, rep.complete_ps);
          }
          --m.inflight[si];
        };
        issue_ns[task_no % issue_ns.size()] = now_ns();
        runtime::task_future f;
        {
          scoped_span sp("pim_system.submit", task_no);
          f = sys.submit(std::move(task));
        }
        fifo.emplace_back(std::move(f), task_no);
        ++m.cursor[si];
        ++m.inflight[si];
      }
    }
    while (!fifo.empty() && fifo.front().first.ready()) fifo.pop_front();
    if (fifo.empty()) {
      const bool done = std::all_of(m.cursor.begin(), m.cursor.end(),
                                    [&](std::uint64_t c) { return c == target; });
      if (done) break;
      continue;
    }
    scoped_span sp("pim_system.wait", fifo.front().second);
    sys.wait(fifo.front().first);
  }
  {
    scoped_span sp("pim_system.wait_all");
    sys.wait_all();
  }

  ps.finish(series);
  ps.ops = issued;
  out.rounds = rounds.size();
  ps.sim_cycles = static_cast<double>(sys.memory().now_cycles() - cyc0);
  ps.energy_fj = sys.runtime().stats().sched.energy_fj - fj0;
  ps.offchip_bytes = sys.runtime().stats().sched.offchip_bytes - off0;
  ps.sim_gbps = gigabytes_per_second(prefix_bytes, prefix_end - ps0);
  r.check(reported_fj == ps.energy_fj,
          "offload_mix: task energies sum to the meter delta");
  r.check(std::all_of(rounds.begin(), rounds.end(),
                      [&](const round_charge& c) {
                        return c.energy_fj == rounds[0].energy_fj &&
                               c.offchip == rounds[0].offchip;
                      }),
          "offload_mix: every round is charged the same energy and bytes");
  return out;
}

/// The reference: `ref`, freshly set up, replays the data-path tasks
/// the closed loop issued (`issued` per stream) one at a time, draining
/// after each (kernels write no memory and are skipped). Its digest
/// must equal the closed loop's.
std::uint64_t drain_per_op_digest(std::uint64_t seed, mix_system& ref,
                                  const std::array<std::uint64_t, kStreams>& issued) {
  for (int s = 0; s < kStreams; ++s) {
    stream_gen gen(seed, s);
    for (std::uint64_t i = 0; i < issued[static_cast<std::size_t>(s)]; ++i) {
      const task_shape t = gen.next();
      if (t.kind == runtime::task_kind::host_kernel) continue;
      const runtime::task_future f = ref.sys->submit(
          make_task(t, ref.vectors[static_cast<std::size_t>(s)], s));
      ref.sys->wait(f);
    }
  }
  return digest_all(*ref.sys, ref.vectors);
}

}  // namespace

report run_offload_mix(const options& opt) {
  report r;
  const bits size = mix_config().org.row_bits() * kRowsPerVector;
  const stream_data data = make_data(opt.seed, size);
  span_log& spans = span_log::instance();

  if (!opt.trace) {
    std::vector<double> setup_s;
    mix_system m;
    setup_s.push_back(time_setup([&] { m = build(opt.seed, data); }));
    const mix_phase phase = run_phase(m, opt.seconds, r);
    r.attempted = phase.sample.ops;
    {
      mix_system ref = build(opt.seed, data);
      r.check(digest_all(*m.sys, m.vectors) ==
                  drain_per_op_digest(opt.seed, ref, m.cursor),
              "offload_mix: closed-loop digest equals the drain-per-op replay");
    }
    r.note("offload_mix: " + std::to_string(phase.rounds) + " rounds, " +
           std::to_string(phase.sample.ops) + " tasks");
    for (int i = 1; i < kSetups; ++i) {
      m = mix_system{};
      setup_s.push_back(time_setup([&] { m = build(opt.seed, data); }));
    }
    add_end_to_end(r, phase.sample, setup_s);
    return r;
  }

  // Traced run: untraced half, then the same loop with spans on.
  layer_values v;
  spans.set_enabled(true);
  mix_system m = build(opt.seed, data);
  spans.set_enabled(false);
  const std::size_t setup_end = spans.size();

  const mix_phase plain = run_phase(m, opt.seconds / 2.0, r);

  const counter_set cmd0 = m.sys->memory().counters();
  const runtime::runtime_stats rt0 = m.sys->runtime().stats();
  spans.set_enabled(true);
  const mix_phase traced = run_phase(m, opt.seconds / 2.0, r);
  const std::size_t phase_end = spans.size();
  const counter_set cmd1 = m.sys->memory().counters();
  const runtime::runtime_stats rt1 = m.sys->runtime().stats();
  const std::uint64_t got = digest_all(*m.sys, m.vectors);
  spans.set_enabled(false);
  mix_system ref = build(opt.seed, data);
  r.check(got == drain_per_op_digest(opt.seed, ref, m.cursor),
          "offload_mix: closed-loop digest equals the drain-per-op replay");
  r.attempted = plain.sample.ops + traced.sample.ops;

  const std::vector<span_record> all = spans.snapshot();
  const auto phase_spans = summarize(all, setup_end, phase_end);
  const double ops = static_cast<double>(traced.sample.ops);
  const double cycles = traced.sample.sim_cycles;
  v["dram.sim_cycles"] = cycles;
  v["dram.host_ns_per_cycle"] = ratio(
      total_ns(phase_spans, {"pim_system.wait", "pim_system.wait_all"}), cycles);
  // Copies: the set-up load and the final digest readback.
  const auto load = summarize(all, 0, setup_end);
  const auto readback = summarize(all, phase_end, all.size());
  const double copies = static_cast<double>(load.at("pim_system.write").count +
                                            readback.at("pim_system.read").count);
  v["dram.copy_ns_per_byte"] =
      ratio(load.at("pim_system.write").total_ns +
                readback.at("pim_system.read").total_ns,
            copies * static_cast<double>(size / 8));
  add_dram_commands(v, cmd0, cmd1, ops);
  add_runtime_delta(v, rt0, rt1, ops);
  v["runtime.submit_ns_per_task"] =
      ratio(total_ns(phase_spans, {"pim_system.submit"}), ops);
  v["obs.trace_overhead_ratio"] =
      ratio(plain.sample.ops_per_s(), traced.sample.ops_per_s());
  spans.write_json(opt.out_dir + "/spans-offload_mix.json");
  add_per_layer(r, v);
  return r;
}

}  // namespace perfbench
