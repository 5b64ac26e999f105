// Tests for the tick-attribution profiler (obs/profile.h), the
// slow-request log, and the observability surfaces PR 7 added around
// them: the histogram-cell cached-handle contract, the OpenMetrics
// exposition, and registry snapshots racing reset().
//
// The fold_samples invariants under test are the ones bench_query
// gates end to end: the attribution is an exact partition of the
// busy-union measure (each projection sums to the same total, which
// equals the per-group union), deterministic under input permutation,
// and idle gaps between tasks cost nothing.
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json_writer.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace pim::obs {
namespace {

constexpr std::int64_t kTick = 1250;  // DDR3-1600 tck_ps

sim_op_sample make_sample(int group, int op, std::int64_t submit,
                          std::int64_t start, std::int64_t complete,
                          int backend = 0, int channel = 0, int bank = 0) {
  sim_op_sample s;
  s.group = group;
  s.op = op;
  s.sub = 0;
  runtime::task_report& r = s.report;
  r.where = static_cast<runtime::backend_kind>(backend);
  r.channel = channel;
  r.bank = bank;
  r.output_bytes = 64;
  r.admit_ps = submit * kTick;
  r.submit_ps = submit * kTick;
  r.release_ps = start * kTick;
  r.start_ps = start * kTick;
  r.complete_ps = complete * kTick;
  return s;
}

std::uint64_t sum_attributed(const std::map<int, op_cost>& m) {
  std::uint64_t total = 0;
  for (const auto& [k, c] : m) total += c.attributed_ticks;
  return total;
}

// ---------------------------------------------------------------------------
// fold_samples
// ---------------------------------------------------------------------------

TEST(FoldSamplesTest, SingleTaskOwnsItsWholeInterval) {
  const auto p = fold_samples({make_sample(0, 3, 10, 14, 30)}, kTick);
  ASSERT_EQ(p.by_op.size(), 1u);
  const op_cost& c = p.by_op.at(3);
  EXPECT_EQ(c.tasks, 1u);
  EXPECT_EQ(c.blocked_ticks, 4u);  // start - submit
  EXPECT_EQ(c.exec_ticks, 16u);   // complete - start
  EXPECT_EQ(c.attributed_ticks, 20u);  // the whole [submit, complete)
  EXPECT_EQ(p.total_attributed_ticks, 20u);
  EXPECT_EQ(p.group_ticks.at(0), 20u);
}

TEST(FoldSamplesTest, IdleGapsCostNothing) {
  // Two disjoint tasks with a 100-tick hole between them: the union
  // measure is the sum of the two intervals, not the span.
  const auto p = fold_samples({make_sample(0, 0, 0, 0, 10),
                               make_sample(0, 1, 110, 110, 130)},
                              kTick);
  EXPECT_EQ(p.total_attributed_ticks, 30u);
  EXPECT_EQ(p.by_op.at(0).attributed_ticks, 10u);
  EXPECT_EQ(p.by_op.at(1).attributed_ticks, 20u);
}

TEST(FoldSamplesTest, OverlapIsBlamedOnTheEarliestSubmitted) {
  // op 0 submitted first and spans [0, 20); op 1 overlaps [10, 30).
  // The shared [10, 20) belongs to op 0 (waiting longest); op 1 only
  // owns the tail it runs alone.
  const auto p = fold_samples({make_sample(0, 0, 0, 0, 20),
                               make_sample(0, 1, 10, 10, 30)},
                              kTick);
  EXPECT_EQ(p.by_op.at(0).attributed_ticks, 20u);
  EXPECT_EQ(p.by_op.at(1).attributed_ticks, 10u);
  EXPECT_EQ(p.total_attributed_ticks, 30u);  // union of [0, 30)
}

TEST(FoldSamplesTest, GroupsUnionIndependently) {
  // The same interval on two simulated clocks counts once per clock:
  // each shard's scheduler burned its own ticks.
  const auto p = fold_samples({make_sample(0, 0, 0, 0, 10),
                               make_sample(1, 0, 0, 0, 10)},
                              kTick);
  EXPECT_EQ(p.group_ticks.at(0), 10u);
  EXPECT_EQ(p.group_ticks.at(1), 10u);
  EXPECT_EQ(p.total_attributed_ticks, 20u);
}

TEST(FoldSamplesTest, ProjectionsPartitionTheSameTotal) {
  // A pile of overlapping tasks across groups, backends, and lanes:
  // all three projections and the per-group unions must sum to the
  // same exact total.
  std::vector<sim_op_sample> samples;
  for (int i = 0; i < 64; ++i) {
    const int group = i % 3;
    const std::int64_t submit = (i * 7) % 50;
    const std::int64_t dur = 5 + (i * 13) % 40;
    samples.push_back(make_sample(group, i % 5, submit, submit + (i % 4),
                                  submit + dur, i % 4, i % 2, i % 8));
  }
  const auto p = fold_samples(samples, kTick);
  ASSERT_GT(p.total_attributed_ticks, 0u);
  EXPECT_EQ(sum_attributed(p.by_op), p.total_attributed_ticks);
  EXPECT_EQ(sum_attributed(p.by_backend), p.total_attributed_ticks);
  std::uint64_t lanes = 0;
  for (const auto& [lane, c] : p.by_lane) lanes += c.attributed_ticks;
  EXPECT_EQ(lanes, p.total_attributed_ticks);
  std::uint64_t groups = 0;
  for (const auto& [g, t] : p.group_ticks) groups += t;
  EXPECT_EQ(groups, p.total_attributed_ticks);
  EXPECT_EQ(p.total_tasks, samples.size());
}

TEST(FoldSamplesTest, DeterministicUnderInputPermutation) {
  std::vector<sim_op_sample> samples;
  for (int i = 0; i < 32; ++i) {
    samples.push_back(make_sample(i % 2, i % 4, (i * 11) % 40,
                                  (i * 11) % 40 + 2, (i * 11) % 40 + 12,
                                  i % 3, 0, i % 4));
  }
  const auto a = fold_samples(samples, kTick);
  std::reverse(samples.begin(), samples.end());
  const auto b = fold_samples(samples, kTick);
  EXPECT_EQ(a.total_attributed_ticks, b.total_attributed_ticks);
  ASSERT_EQ(a.by_op.size(), b.by_op.size());
  for (const auto& [op, c] : a.by_op) {
    EXPECT_EQ(c.attributed_ticks, b.by_op.at(op).attributed_ticks) << op;
    EXPECT_EQ(c.blocked_ticks, b.by_op.at(op).blocked_ticks) << op;
  }
}

TEST(FoldSamplesTest, ZeroDurationTasksCountWorkButNoTicks) {
  const auto p = fold_samples({make_sample(0, 0, 5, 5, 5)}, kTick);
  EXPECT_EQ(p.total_tasks, 1u);
  EXPECT_EQ(p.total_attributed_ticks, 0u);
  EXPECT_EQ(p.by_op.at(0).tasks, 1u);
}

// ---------------------------------------------------------------------------
// slow-request log
// ---------------------------------------------------------------------------

slow_request make_slow(std::uint64_t flow, std::int64_t latency_ns) {
  slow_request r;
  r.flow = flow;
  r.session = 1;
  r.shard = 0;
  r.kind = "run_task";
  r.latency_ns = latency_ns;
  return r;
}

TEST(SlowRequestLogTest, RingRetainsNewestUpToCapacity) {
  auto& log = slow_request_log::instance();
  log.clear();
  log.set_capacity(4);
  const std::uint64_t before = log.observed();
  for (std::uint64_t f = 1; f <= 10; ++f) log.observe(make_slow(f, 1000));
  EXPECT_EQ(log.observed() - before, 10u);
  const auto entries = log.entries();
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries.front().flow, 7u);  // oldest retained
  EXPECT_EQ(entries.back().flow, 10u);
  log.clear();
  EXPECT_TRUE(log.entries().empty());
  log.set_capacity(64);
}

TEST(SlowRequestLogTest, ShrinkingCapacityDropsOldest) {
  auto& log = slow_request_log::instance();
  log.clear();
  log.set_capacity(8);
  for (std::uint64_t f = 1; f <= 8; ++f) log.observe(make_slow(f, 1000));
  log.set_capacity(2);
  const auto entries = log.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries.front().flow, 7u);
  log.clear();
  log.set_capacity(64);
}

TEST(SlowRequestLogTest, CapturesFlowSpansWhenTracing) {
  auto& log = slow_request_log::instance();
  auto& tracer = tracer::instance();
  log.clear();
  tracer.clear();
  tracer.enable();
  const std::uint64_t flow = tracer.next_flow();
  {
    span sp("slow op", "test", flow);
  }
  log.observe(make_slow(flow, 5'000'000));
  tracer.disable();
  const auto entries = log.entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_FALSE(entries.front().spans.empty());
  for (const trace_event& e : entries.front().spans) {
    EXPECT_EQ(e.flow, flow);
  }
  log.clear();
  tracer.clear();
}

TEST(SlowRequestLogTest, JsonCarriesThresholdAndEntries) {
  auto& log = slow_request_log::instance();
  log.clear();
  log.set_threshold_ns(2'000'000);
  log.observe(make_slow(42, 3'000'000));
  json_writer json;
  json.begin_object();
  log.to_json(json);
  json.end_object();
  const std::string out = json.str();
  EXPECT_NE(out.find("\"threshold_ns\":2000000"), std::string::npos) << out;
  EXPECT_NE(out.find("\"flow\":42"), std::string::npos) << out;
  EXPECT_NE(out.find("\"kind\":\"run_task\""), std::string::npos) << out;
  log.set_threshold_ns(0);
  log.clear();
}

// ---------------------------------------------------------------------------
// metrics registry: cached histogram handles, OpenMetrics, reset races
// ---------------------------------------------------------------------------

TEST(MetricsTest, HistogramCellHandleIsStableAcrossReset) {
  auto& reg = metrics_registry::instance();
  histogram_cell& cell = reg.hist("profile_test.stable_hist");
  cell.record(100);
  EXPECT_EQ(reg.histogram("profile_test.stable_hist").count(), 1u);
  reg.reset();
  EXPECT_EQ(reg.histogram("profile_test.stable_hist").count(), 0u);
  // The cached reference must still feed the same named slot.
  EXPECT_EQ(&cell, &reg.hist("profile_test.stable_hist"));
  cell.record(200);
  cell.record(300);
  EXPECT_EQ(reg.histogram("profile_test.stable_hist").count(), 2u);
}

TEST(MetricsTest, OpenMetricsExposesEveryKind) {
  metrics_snapshot snap;
  snap.counters["net.rx_bytes"] = 123;
  snap.gauges["service.shard.0.queue_depth"] = -4;
  geo_histogram h;
  h.record(1000);
  snap.histograms["service.latency_ns"] = h;
  // Quantiles print exactly: 2^21 is 2097152, not 2.09715e+06.
  geo_histogram tail;
  tail.record(std::uint64_t{1} << 20);
  snap.histograms["service.tail_ns"] = tail;

  const std::string out = openmetrics(snap);
  EXPECT_NE(out.find("# TYPE pim_net_rx_bytes counter\n"), std::string::npos);
  EXPECT_NE(out.find("pim_net_rx_bytes_total 123\n"), std::string::npos);
  EXPECT_NE(out.find("# TYPE pim_service_shard_0_queue_depth gauge\n"),
            std::string::npos);
  EXPECT_NE(out.find("pim_service_shard_0_queue_depth -4\n"),
            std::string::npos);
  EXPECT_NE(out.find("# TYPE pim_service_latency_ns summary\n"),
            std::string::npos);
  EXPECT_NE(out.find("pim_service_latency_ns{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(out.find("pim_service_latency_ns_count 1\n"), std::string::npos);
  EXPECT_NE(out.find("pim_service_tail_ns{quantile=\"0.99\"} 2097152\n"),
            std::string::npos);
  EXPECT_EQ(out.rfind("# EOF\n"), out.size() - 6);
}

TEST(MetricsTest, SanitizeMapsOntoPrometheusGrammar) {
  EXPECT_EQ(sanitize_metric_name("service.shard.0.queue_depth"),
            "service_shard_0_queue_depth");
  EXPECT_EQ(sanitize_metric_name("0leading"), "_0leading");
  EXPECT_EQ(sanitize_metric_name("a-b c"), "a_b_c");
  EXPECT_EQ(sanitize_metric_name(""), "_");
}

TEST(MetricsTest, SnapshotRacingResetStaysConsistent) {
  // Writers hammer cached counter/histogram handles while another
  // thread alternates snapshot() and reset(): no crash, no torn
  // state, and every snapshot internally well-formed. (The TSan job
  // runs this test; the assertions here are liveness + sanity.)
  auto& reg = metrics_registry::instance();
  auto& counter = reg.counter("profile_test.race_counter");
  auto& cell = reg.hist("profile_test.race_hist");
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load()) {
      counter.fetch_add(1, std::memory_order_relaxed);
      cell.record(42);
    }
  });
  for (int i = 0; i < 200; ++i) {
    metrics_snapshot snap = reg.snapshot();
    auto it = snap.histograms.find("profile_test.race_hist");
    if (it != snap.histograms.end()) {
      // A histogram copy is internally consistent: its percentile
      // never exceeds the largest recorded bucket's upper bound.
      EXPECT_LE(it->second.percentile(0.99), 127.0);
    }
    if (i % 10 == 0) reg.reset();
  }
  stop.store(true);
  writer.join();
  reg.reset();
}

}  // namespace
}  // namespace pim::obs
