// scan_query: one thread issues queries against a pim_table of 2^20
// rows and two columns (12 and 8 bits), spread over four in-process
// sessions on two shards. The mix covers BitWeaving scans, AND/OR trees
// and count/sum aggregates; one query in five is gathered cross-shard
// through a selection_gatherer on a fifth (collector) session.
//
// Why: it is the paper's analytics case and the only user of the
// query planner/executor and the cross-shard planner; loading the
// table also makes set-up do real work.
//
// A round is the same kQueries queries (drawn once from the seed), so
// every round is charged the same energy. Every result — selection
// digest, count, sum and gathered digest — is checked against the
// scalar db::evaluate_reference composition.
#include <atomic>
#include <memory>

#include "common/digest.h"
#include "common/rng.h"
#include "core/pim_system.h"
#include "db/bitweaving.h"
#include "harness.h"
#include "layers.h"
#include "query/exec.h"
#include "service/client.h"

namespace perfbench {
namespace {

using namespace pim;

constexpr std::size_t kRows = std::size_t{1} << 20;
constexpr int kPartitions = 4;
constexpr int kShards = 2;
/// Queries per round, one of them gathered. Five keeps the 50th and
/// 90th latency percentiles inside one query's mode each: each query
/// is a mode of 20% of the samples, so boundaries fall at multiples
/// of 20%.
constexpr int kQueries = 5;
constexpr int kScratch = 24;
/// Queries per timed window: two rounds, about 0.3 s on a 4-vCPU Xeon
/// VM, so every window holds the same queries.
constexpr std::uint64_t kQueriesPerWindow = 2 * kQueries;

service::service_config scan_service_config() {
  service::service_config cfg;
  cfg.shards = kShards;
  cfg.system = shard_config();
  cfg.routing = service::shard_routing::range;
  // Partitions 0,1 -> shard 0, 2,3 -> shard 1; the collector (session
  // 4) wraps onto shard 0, so gathering partitions 2,3 crosses shards.
  cfg.sessions_per_shard = kPartitions / kShards;
  return cfg;
}

/// Forwards to an in-process service_client, recording a span around
/// each call and counting the host write/read bytes it moves.
class metered_client final : public service::client_api {
 public:
  metered_client(service::client_api& inner, bool collector,
                 std::atomic<std::uint64_t>& host_bytes)
      : inner_(inner), collector_(collector), host_bytes_(host_bytes) {}

  /// Span op id for the calls of the current query (set by the query
  /// thread before execute starts the partition threads).
  std::uint64_t op = 0;

  service::session_id id() const override { return inner_.id(); }
  int shard_index() const override { return inner_.shard_index(); }

  std::vector<dram::bulk_vector> allocate(bits size, int count) override {
    scoped_span sp(collector_ ? "collector.allocate" : "service_client.allocate", op);
    owned_bytes_ += size / 8 * static_cast<bits>(count);
    return inner_.allocate(size, count);
  }
  void write(const dram::bulk_vector& v, const bitvector& data) override {
    scoped_span sp(collector_ ? "collector.write" : "service_client.write", op);
    inner_.write(v, data);
    host_bytes_ += v.size / 8;
  }
  bitvector read(const dram::bulk_vector& v) override {
    scoped_span sp(collector_ ? "collector.read" : "service_client.read", op);
    bitvector out = inner_.read(v);
    host_bytes_ += v.size / 8;
    return out;
  }
  service::request_future submit_bulk(dram::bulk_op o,
                                      const dram::bulk_vector& a,
                                      const dram::bulk_vector* b,
                                      const dram::bulk_vector& d) override {
    scoped_span sp(collector_ ? "collector.submit_bulk" : "service_client.submit_bulk", op);
    return inner_.submit_bulk(o, a, b, d);
  }
  service::request_future submit_shared(dram::bulk_op o,
                                        const service::shared_vector& a,
                                        const service::shared_vector* b,
                                        const service::shared_vector& d) override {
    scoped_span sp(collector_ ? "collector.submit_shared" : "service_client.submit_shared", op);
    return inner_.submit_shared(o, a, b, d);
  }
  void wait_all() override {
    scoped_span sp(collector_ ? "collector.wait_all" : "service_client.wait_all", op);
    inner_.wait_all();
  }
  std::uint64_t digest() override {
    // The digest reads back every vector this session allocated.
    scoped_span sp(collector_ ? "collector.digest" : "service_client.digest", op);
    host_bytes_ += owned_bytes_;
    return inner_.digest();
  }

 private:
  service::client_api& inner_;
  bool collector_;
  std::atomic<std::uint64_t>& host_bytes_;
  bits owned_bytes_ = 0;
};

const query::table_schema& schema() {
  static const query::table_schema s{{{"x", 12}, {"y", 8}}};
  return s;
}

struct dataset {
  db::column x;
  db::column y;
};

dataset make_data(std::uint64_t seed) {
  rng gen(seed ^ 0x5ca11ull);
  return {db::random_column(kRows, 12, gen), db::random_column(kRows, 8, gen)};
}

/// One query of the round and whether its selection is gathered.
struct round_query {
  query::query_spec spec;
  bool gathered = false;
};

/// The round: four queries run locally and one gathered, in an order
/// drawn from the seed. The constants are fixed so every seed issues
/// the same bulk ops; the seed varies the data and the order.
std::vector<round_query> make_queries(std::uint64_t seed) {
  using query::predicate_node;
  auto leaf = [](const char* col, db::cmp_op op, std::uint32_t v,
                 std::uint32_t v2 = 0) {
    return predicate_node::leaf(col, {op, v, v2});
  };
  std::vector<round_query> q(kQueries);
  q[0].spec.where = leaf("x", db::cmp_op::lt, 1500);
  q[1].spec.where = predicate_node::land(leaf("x", db::cmp_op::lt, 3000),
                                         leaf("y", db::cmp_op::ge, 100));
  q[2].spec.where = predicate_node::lor(
      leaf("x", db::cmp_op::gt, 3500),
      predicate_node::lnot(leaf("y", db::cmp_op::eq, 77)));
  q[3].spec.where = predicate_node::land(leaf("x", db::cmp_op::ge, 1000),
                                         leaf("y", db::cmp_op::le, 200));
  q[3].spec.agg = query::agg_kind::sum;
  q[3].spec.agg_column = "y";
  q[4].spec.where = leaf("x", db::cmp_op::between, 700, 2900);
  q[4].gathered = true;
  rng gen(seed ^ 0x9e7ull);
  for (std::size_t i = q.size() - 1; i > 0; --i) {  // Fisher-Yates
    std::swap(q[i], q[static_cast<std::size_t>(gen.next_below(i + 1))]);
  }
  return q;
}

/// What each query must return, from the scalar reference.
struct expected {
  std::uint64_t digest = 0;
  std::size_t matches = 0;
  std::uint64_t sum = 0;
  std::uint64_t gathered_digest = 0;
  bitvector partition0;  // partition 0's selection, for the direct replay
};

bitvector reference_selection(const dataset& data,
                              const query::predicate_node& n) {
  using kind = query::predicate_node::node_kind;
  switch (n.kind) {
    case kind::leaf:
      return db::evaluate_reference(n.column == "x" ? data.x : data.y, n.pred);
    case kind::logic_and:
      return reference_selection(data, n.children[0]) &
             reference_selection(data, n.children[1]);
    case kind::logic_or:
      return reference_selection(data, n.children[0]) |
             reference_selection(data, n.children[1]);
    case kind::logic_not:
      return ~reference_selection(data, n.children[0]);
  }
  throw std::logic_error("unknown predicate node");
}

std::vector<expected> make_expected(const dataset& data,
                                    const std::vector<round_query>& qs) {
  std::vector<expected> out;
  const std::size_t part = kRows / kPartitions;
  for (const round_query& rq : qs) {
    const query::query_spec& q = rq.spec;
    expected e;
    const bitvector sel = reference_selection(data, q.where);
    e.digest = fnv1a(fnv1a_basis, sel);
    e.matches = sel.popcount();
    for (std::size_t i = 0; i < kRows; ++i) {
      if (q.agg == query::agg_kind::sum && sel.get(i)) e.sum += data.y.values[i];
    }
    e.gathered_digest = fnv1a_basis;
    for (int p = 0; p < kPartitions; ++p) {
      bitvector slice(part);
      for (std::size_t i = 0; i < part; ++i) {
        slice.set(i, sel.get(static_cast<std::size_t>(p) * part + i));
      }
      e.gathered_digest = fnv1a(e.gathered_digest, slice);
      if (p == 0) e.partition0 = slice;
    }
    out.push_back(std::move(e));
  }
  return out;
}

/// A started service with the table loaded.
struct scan_system {
  std::unique_ptr<service::pim_service> svc;
  std::vector<std::unique_ptr<service::service_client>> clients;
  std::vector<std::unique_ptr<metered_client>> metered;  // last = collector
  std::unique_ptr<query::pim_table> table;
  std::unique_ptr<query::selection_gatherer> gatherer;
  std::atomic<std::uint64_t> host_bytes{0};

  void reset() {
    gatherer.reset();
    table.reset();
    metered.clear();
    clients.clear();
    svc.reset();
  }
};

void build(scan_system& s, const dataset& data) {
  s.svc = std::make_unique<service::pim_service>(scan_service_config());
  s.svc->start();
  std::vector<service::client_api*> sessions;
  for (int p = 0; p <= kPartitions; ++p) {
    s.clients.push_back(std::make_unique<service::service_client>(*s.svc));
    s.metered.push_back(std::make_unique<metered_client>(
        *s.clients.back(), p == kPartitions, s.host_bytes));
    if (p < kPartitions) sessions.push_back(s.metered.back().get());
  }
  s.gatherer = std::make_unique<query::selection_gatherer>(*s.metered.back());
  s.table = std::make_unique<query::pim_table>(schema(), kRows, sessions, kScratch);
  {
    scoped_span sp("pim_table.load");
    s.table->load("x", data.x);
  }
  {
    scoped_span sp("pim_table.load");
    s.table->load("y", data.y);
  }
}

struct scan_phase {
  phase_sample sample;
  std::uint64_t queries = 0;
  std::uint64_t failed = 0;
  std::uint64_t ops_submitted = 0;
  service::service_stats before;
  service::service_stats after;
};

/// Issues whole rounds of the query mix until the deadline; checks
/// every result.
scan_phase run_phase(scan_system& s, const std::vector<round_query>& qs,
                     const std::vector<expected>& want, double seconds,
                     std::uint64_t& next_op, report& r) {
  scan_phase out;
  out.before = s.svc->stats();
  const std::uint64_t bytes0 = s.host_bytes.load();
  const picoseconds tck = shard_config().timing.tck_ps;
  window_series series(kQueriesPerWindow,
                       [&s, tck] { return shard_cycles(s.svc->stats(), tck); });
  series.start();
  phase_sample& ps = out.sample;
  ps.start_ns = now_ns();
  const auto deadline = ps.start_ns + static_cast<std::int64_t>(seconds * 1e9);
  bool all_ok = true;
  std::vector<latency_histogram> by_query(kQueries);
  do {
    for (int i = 0; i < kQueries; ++i) {
      const std::uint64_t op = ++next_op;
      for (auto& m : s.metered) m->op = op;
      query::exec_options opts;
      const round_query& rq = qs[static_cast<std::size_t>(i)];
      if (rq.gathered) opts.gather = s.gatherer.get();
      const std::int64_t t0 = now_ns();
      try {
        query::query_plan plan;
        {
          scoped_span sp("query.plan_query", op);
          plan = query::plan_query(schema(), rq.spec);
        }
        query::query_result res;
        {
          scoped_span sp(rq.gathered ? "query.execute_gathered" : "query.execute", op);
          res = query::execute(*s.table, plan, opts);
        }
        series.record(now_ns() - t0);
        by_query[static_cast<std::size_t>(i)].record_ns(now_ns() - t0);
        const expected& e = want[static_cast<std::size_t>(i)];
        all_ok = all_ok && res.digest == e.digest && res.matches == e.matches &&
                 res.sum == e.sum &&
                 (!rq.gathered || res.gathered_digest == e.gathered_digest);
        out.ops_submitted += res.ops_submitted;
      } catch (const std::exception&) {
        ++out.failed;
      }
      ++out.queries;
    }
  } while (now_ns() < deadline);
  ps.finish(series);
  out.after = s.svc->stats();
  std::string per_query = "median latency (us) by query:";
  for (const latency_histogram& l : by_query) {
    per_query += ' ';
    per_query += std::to_string(static_cast<long long>(l.percentile_us(50)));
  }
  r.note(per_query);
  r.check(all_ok, "scan_query: every selection digest, count, sum and "
                  "gathered digest equals the scalar reference");

  ps.ops = out.queries - out.failed;
  ps.sim_cycles = shard_cycles(out.after, tck) - shard_cycles(out.before, tck);
  ps.sim_gbps = gigabytes_per_second(
      out.after.output_bytes - out.before.output_bytes,
      out.after.makespan_ps - out.before.makespan_ps);
  ps.energy_fj = out.after.energy_fj - out.before.energy_fj;
  // Ledger offchip bytes plus the host write/read payloads (selection
  // and aggregate readbacks, gather slot resets and digests), which
  // cross the DDR pins but which the energy meter does not charge.
  ps.offchip_bytes = out.after.moved_offchip_bytes -
                     out.before.moved_offchip_bytes + s.host_bytes.load() -
                     bytes0;
  return out;
}

std::uint64_t failed_ops(const scan_phase& p) {
  return std::max(p.failed, p.after.requests_failed - p.before.requests_failed) +
         (p.after.requests_rejected - p.before.requests_rejected);
}

/// Host cost of each call kind when made directly on a pim_system.
struct direct_costs {
  double read_us = 0;
  double write_us = 0;
  double bulk_us = 0;  // per step: submit plus its share of wait_all
};

/// Direct pim_system replay of partition 0's plans: the same group
/// shape pim_table allocates, the same slices, every step submitted
/// and waited, the selection read back and checked.
direct_costs replay_partition0(report& r, const dataset& data,
                               const std::vector<round_query>& qs,
                               const std::vector<expected>& want,
                               layer_values& v) {
  core::pim_system sys(shard_config());
  const std::size_t rows = kRows / kPartitions;
  int slices = 0;
  for (const auto& c : schema().columns) slices += c.bit_width;
  const std::vector<dram::bulk_vector> group =
      sys.allocate(static_cast<bits>(rows), slices + kScratch);
  span_log& spans = span_log::instance();
  const std::size_t begin = spans.size();
  spans.set_enabled(true);
  int base = 0;
  for (const db::column* col : {&data.x, &data.y}) {
    db::column chunk;
    chunk.bit_width = col->bit_width;
    chunk.values.assign(col->values.begin(),
                        col->values.begin() + static_cast<std::ptrdiff_t>(rows));
    const db::bitslice_storage st(chunk);
    for (int b = 0; b < st.width(); ++b) {
      scoped_span sp("pim_system.write");
      sys.write(group[static_cast<std::size_t>(base + b)], st.slice(b));
    }
    base += col->bit_width;
  }
  const counter_set cmd0 = sys.memory().counters();
  const cycles cyc0 = sys.memory().now_cycles();
  std::uint64_t steps = 0;
  bool ok = true;
  std::vector<int> offset;  // first slice of each column
  for (int c = 0, o = 0; c < static_cast<int>(schema().columns.size()); ++c) {
    offset.push_back(o);
    o += schema().columns[static_cast<std::size_t>(c)].bit_width;
  }
  for (std::size_t q = 0; q < qs.size(); ++q) {
    const query::query_plan plan = query::plan_query(schema(), qs[q].spec);
    auto reg = [&](int rg) -> const dram::bulk_vector& {
      if (rg < plan.input_count()) {
        const query::slice_ref& in = plan.inputs[static_cast<std::size_t>(rg)];
        return group[static_cast<std::size_t>(offset[static_cast<std::size_t>(in.column)] + in.bit)];
      }
      return group[static_cast<std::size_t>(slices + rg - plan.input_count())];
    };
    for (const query::plan_step& st : plan.steps) {
      scoped_span sp("pim_system.submit", q);
      sys.submit_bulk(st.op, reg(st.a), st.b < 0 ? nullptr : &reg(st.b), reg(st.d));
      ++steps;
    }
    {
      scoped_span sp("pim_system.wait_all", q);
      sys.wait_all();
    }
    bitvector sel;
    {
      scoped_span sp("pim_system.read", q);
      sel = sys.read(reg(plan.selection));
    }
    ok = ok && sel == want[q].partition0;
    for (const int rg : plan.sum_regs) {
      scoped_span sp("pim_system.read", q);
      (void)sys.read(reg(rg));
    }
  }
  spans.set_enabled(false);
  r.check(ok, "scan_query: direct replay of partition 0 matches the reference");
  const std::vector<span_record> all = spans.snapshot();
  const auto sp = summarize(all, begin, all.size());
  const double cyc = static_cast<double>(sys.memory().now_cycles() - cyc0);
  const double ops = static_cast<double>(steps);
  v["dram.host_ns_per_cycle"] = ratio(total_ns(sp, {"pim_system.wait_all"}), cyc);
  const double copies = static_cast<double>(sp.at("pim_system.write").count +
                                            sp.at("pim_system.read").count);
  v["dram.copy_ns_per_byte"] =
      ns_per_byte(sp, {"pim_system.write", "pim_system.read"},
                  copies * static_cast<double>(rows / 8));
  add_dram_commands(v, cmd0, sys.memory().counters(), ops);
  v["runtime.submit_ns_per_task"] = ratio(total_ns(sp, {"pim_system.submit"}), ops);
  direct_costs out;
  out.read_us = median_ns(sp, "pim_system.read") / 1e3;
  out.write_us = median_ns(sp, "pim_system.write") / 1e3;
  out.bulk_us =
      ratio(total_ns(sp, {"pim_system.submit", "pim_system.wait_all"}), ops) / 1e3;
  return out;
}

}  // namespace

report run_scan_query(const options& opt) {
  report r;
  const dataset data = make_data(opt.seed);
  const std::vector<round_query> qs = make_queries(opt.seed);
  const std::vector<expected> want = make_expected(data, qs);
  span_log& spans = span_log::instance();
  std::uint64_t next_op = 0;

  if (!opt.trace) {
    std::vector<double> setup_s;
    scan_system s;
    setup_s.push_back(time_setup([&] { build(s, data); }));
    const scan_phase phase = run_phase(s, qs, want, opt.seconds, next_op, r);
    r.attempted = phase.queries;
    r.failed = failed_ops(phase);
    r.note("scan_query: " + std::to_string(phase.queries) + " queries, " +
           std::to_string(phase.ops_submitted) + " bulk ops");
    for (int i = 1; i < kSetups; ++i) {
      s.reset();
      setup_s.push_back(time_setup([&] { build(s, data); }));
    }
    s.reset();
    add_end_to_end(r, phase.sample, setup_s);
    return r;
  }

  // Traced run.
  layer_values v;
  scan_system s;
  spans.set_enabled(true);
  build(s, data);
  spans.set_enabled(false);
  const std::size_t setup_end = spans.size();
  const scan_phase plain = run_phase(s, qs, want, opt.seconds / 2.0, next_op, r);
  spans.set_enabled(true);
  const std::size_t phase_begin = spans.size();
  const scan_phase traced = run_phase(s, qs, want, opt.seconds / 2.0, next_op, r);
  const std::size_t phase_end = spans.size();
  spans.set_enabled(false);
  r.attempted = plain.queries + traced.queries;
  r.failed = failed_ops(plain) + failed_ops(traced);
  s.reset();

  const std::vector<span_record> all = spans.snapshot();
  const auto setup = summarize(all, 0, setup_end);
  const auto phase = summarize(all, phase_begin, phase_end);
  const double queries = static_cast<double>(traced.sample.ops);
  v["query.plan_us"] = median_ns(phase, "query.plan_query") / 1e3;
  std::vector<double> exec_ns;
  for (const char* name : {"query.execute", "query.execute_gathered"}) {
    const auto it = phase.find(name);
    if (it != phase.end()) {
      exec_ns.insert(exec_ns.end(), it->second.durations_ns.begin(),
                     it->second.durations_ns.end());
    }
  }
  v["query.exec_us_p50"] = median(exec_ns) / 1e3;
  v["query.ops_per_query"] =
      ratio(static_cast<double>(traced.ops_submitted), queries);
  v["query.load_s"] = total_ns(setup, {"pim_table.load"}) / 1e9;
  // Gather cost per gathered query: its collector calls, summed.
  std::map<std::uint64_t, double> gather_ns;
  for (std::size_t i = phase_begin; i < phase_end; ++i) {
    const std::string name = all[i].name;
    if (name.rfind("collector.", 0) == 0 && name != "collector.allocate") {
      gather_ns[all[i].op] += static_cast<double>(all[i].end_ns - all[i].start_ns);
    }
  }
  std::vector<double> gather;
  for (const auto& [op, ns] : gather_ns) gather.push_back(ns);
  v["query.gather_extra_us_p50"] = median(gather) / 1e3;

  v["dram.sim_cycles"] = traced.sample.sim_cycles;
  add_runtime_delta(v, total_runtime(traced.before), total_runtime(traced.after),
                    queries);
  const auto& writes = setup.at("service_client.write");
  add_service_delta(v, traced.before, traced.after, queries,
                    static_cast<double>(phase.count("service_client.read")
                                            ? phase.at("service_client.read").count
                                            : 0));
  // Service self time per call: the service path minus the direct
  // pim_system cost of the same call on the same vector size.
  const direct_costs direct = replay_partition0(r, data, qs, want, v);
  v["service.self_us_read"] =
      median_ns(phase, "service_client.read") / 1e3 - direct.read_us;
  v["service.self_us_write"] = median(writes.durations_ns) / 1e3 - direct.write_us;
  v["service.self_us_bulk"] =
      ratio(total_ns(phase, {"service_client.submit_bulk", "service_client.wait_all"}),
            static_cast<double>(traced.ops_submitted)) / 1e3 -
      direct.bulk_us;
  v["obs.trace_overhead_ratio"] =
      ratio(plain.sample.ops_per_s(), traced.sample.ops_per_s());
  spans.write_json(opt.out_dir + "/spans-scan_query.json");
  add_per_layer(r, v);
  return r;
}

}  // namespace perfbench
