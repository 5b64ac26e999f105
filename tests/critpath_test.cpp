// Tests for wait-state attribution and the critical-path analyzer
// (obs/critpath.h): known-path DAG shapes (chain, diamond, fan-in),
// the zero-remainder segment partition, permutation determinism,
// zero-duration tasks, the what-if projector (identity replay plus
// zeroed wait classes), the scheduler's telescoping stamps and
// wait-counter partition, and the wire round-trip of the report's
// wait-state fields.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/pim_system.h"
#include "net/protocol.h"
#include "obs/critpath.h"
#include "obs/profile.h"

namespace pim::obs {
namespace {

/// A fully-stamped sample: admit <= submit <= release <= start <=
/// complete, with the release edge (blocked_on) the analyzer chains
/// through. Timestamps are plain picosecond integers — the analyzer
/// never assumes a tick grid.
sim_op_sample make(std::uint64_t id, std::int64_t admit,
                   std::int64_t submit, std::int64_t release,
                   std::int64_t start, std::int64_t complete,
                   std::uint64_t blocked_on = 0, bool wire_hop = false,
                   int group = 0) {
  sim_op_sample s;
  s.group = group;
  s.op = static_cast<int>(id);
  s.sub = 0;
  runtime::task_report& r = s.report;
  r.id = id;
  r.admit_ps = admit;
  r.submit_ps = submit;
  r.release_ps = release;
  r.start_ps = start;
  r.complete_ps = complete;
  r.blocked_on = blocked_on;
  r.blocked_row = blocked_on != 0 ? 7 : 0;
  r.wire_hop = wire_hop;
  return s;
}

std::uint64_t segment_sum(const critpath_report& r) {
  std::uint64_t total = 0;
  for (int i = 0; i <= 5; ++i) total += r.state_ps[i];
  return total;
}

// ---------------------------------------------------------------------------
// analyze(): DAG shapes with known critical paths
// ---------------------------------------------------------------------------

TEST(CritpathTest, EmptyInputIsVacuouslyExact) {
  const critpath_report r = analyze({});
  EXPECT_TRUE(r.exact);
  EXPECT_TRUE(r.tasks.empty());
  EXPECT_EQ(r.span_ps(), 0);
}

TEST(CritpathTest, ChainFollowsEveryReleaseEdge) {
  // 1 -> 2 -> 3, each released at the instant its blocker completed.
  const std::vector<sim_op_sample> samples = {
      make(1, 0, 0, 0, 0, 10),
      make(2, 2, 2, 10, 10, 25, /*blocked_on=*/1),
      make(3, 3, 3, 25, 25, 40, /*blocked_on=*/2),
  };
  const critpath_report r = analyze(samples);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.tasks, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(r.path_start_ps, 0);
  EXPECT_EQ(r.path_end_ps, 40);
  EXPECT_EQ(r.span_ps(), 40);
  // The whole span is execution: hops start at their release instant.
  EXPECT_EQ(r.state_ps[static_cast<int>(wait_state::executing)], 40u);
  EXPECT_EQ(segment_sum(r), 40u);
  EXPECT_EQ(r.dominant(), wait_state::executing);
  EXPECT_EQ(r.dominant_pct(), 100);
}

TEST(CritpathTest, DiamondPicksTheSlowArm) {
  // 1 fans out to 2 (fast) and 3 (slow); 4 joins behind 3.
  const std::vector<sim_op_sample> samples = {
      make(1, 0, 0, 0, 0, 10),
      make(2, 1, 1, 10, 10, 20, /*blocked_on=*/1),
      make(3, 1, 1, 10, 10, 30, /*blocked_on=*/1),
      make(4, 2, 2, 30, 30, 45, /*blocked_on=*/3),
  };
  const critpath_report r = analyze(samples);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.tasks, (std::vector<std::uint64_t>{1, 3, 4}));
  EXPECT_EQ(r.span_ps(), 45);
  EXPECT_EQ(segment_sum(r), 45u);
}

TEST(CritpathTest, FanInChainsThroughTheLastHazardToClear) {
  // 3 waited on both 1 and 2; the scheduler stamps blocked_on with
  // the dependency whose completion released it (2, the later), and
  // 3 then waited 2 more ps for an executor slot (bank_busy).
  const std::vector<sim_op_sample> samples = {
      make(1, 0, 0, 0, 0, 10),
      make(2, 0, 0, 0, 0, 18),
      make(3, 1, 1, 18, 20, 33, /*blocked_on=*/2),
  };
  const critpath_report r = analyze(samples);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.tasks, (std::vector<std::uint64_t>{2, 3}));
  EXPECT_EQ(r.span_ps(), 33);
  EXPECT_EQ(r.state_ps[static_cast<int>(wait_state::bank_busy)], 2u);
  EXPECT_EQ(r.state_ps[static_cast<int>(wait_state::executing)], 31u);
}

TEST(CritpathTest, RootOwnsItsAdmissionAndHazardWait) {
  // A single task that waited everywhere: 5 ps in the admission
  // queue, 4 ps blocked (on a task outside the sample set), 3 ps for
  // a slot, 8 ps executing. The timeline starts at 1, not 0: a zero
  // admit stamp means "unknown" and clamps to submit.
  const critpath_report r =
      analyze({make(1, 1, 6, 10, 13, 21)});
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.span_ps(), 20);
  EXPECT_EQ(r.state_ps[static_cast<int>(wait_state::admission_queued)], 5u);
  EXPECT_EQ(r.state_ps[static_cast<int>(wait_state::hazard_blocked)], 4u);
  EXPECT_EQ(r.state_ps[static_cast<int>(wait_state::bank_busy)], 3u);
  EXPECT_EQ(r.state_ps[static_cast<int>(wait_state::executing)], 8u);
  EXPECT_EQ(r.dominant(), wait_state::executing);
  EXPECT_EQ(r.dominant_pct(), 40);  // 8 / 20
}

TEST(CritpathTest, WireHopSegmentsAreTypedWire) {
  const std::vector<sim_op_sample> samples = {
      make(1, 0, 0, 0, 0, 10),
      make(2, 1, 1, 10, 10, 30, /*blocked_on=*/1, /*wire_hop=*/true),
  };
  const critpath_report r = analyze(samples);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.state_ps[static_cast<int>(wait_state::wire)], 20u);
  EXPECT_EQ(r.state_ps[static_cast<int>(wait_state::executing)], 10u);
  EXPECT_EQ(r.dominant(), wait_state::wire);
}

TEST(CritpathTest, BrokenEdgeStopsTheChain) {
  // 2 claims a blocker that is not in the sample set: the chain stops
  // at 2, which then owns its own hazard wait as path time.
  const std::vector<sim_op_sample> samples = {
      make(1, 0, 0, 0, 0, 10),
      make(2, 1, 1, 12, 12, 25, /*blocked_on=*/99),
  };
  const critpath_report r = analyze(samples);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.tasks, (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(r.state_ps[static_cast<int>(wait_state::hazard_blocked)], 11u);
}

TEST(CritpathTest, MismatchedReleaseInstantBreaksTheEdge) {
  // The blocker exists but completed at 9, not at 2's release instant
  // 12 — not the release edge the scheduler stamps, so no chaining.
  const std::vector<sim_op_sample> samples = {
      make(1, 0, 0, 0, 0, 9),
      make(2, 1, 1, 12, 12, 25, /*blocked_on=*/1),
  };
  const critpath_report r = analyze(samples);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.tasks, (std::vector<std::uint64_t>{2}));
}

TEST(CritpathTest, EdgesNeverCrossGroups) {
  // Same numeric id on another shard's clock: ids are per-scheduler,
  // so the edge must not resolve against group 1's task 1.
  const std::vector<sim_op_sample> samples = {
      make(1, 0, 0, 0, 0, 10, 0, false, /*group=*/1),
      make(2, 1, 1, 10, 10, 25, /*blocked_on=*/1, false, /*group=*/0),
  };
  const critpath_report r = analyze(samples);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.tasks, (std::vector<std::uint64_t>{2}));
}

TEST(CritpathTest, ZeroDurationTasksLeaveNoSegments) {
  // A zero-lifetime task chained mid-path: admitted, released, and
  // completed at one instant. It contributes a hop but no slices, and
  // the partition stays exact.
  const std::vector<sim_op_sample> samples = {
      make(1, 0, 0, 0, 0, 10),
      make(2, 10, 10, 10, 10, 10, /*blocked_on=*/1),
      make(3, 5, 5, 10, 10, 22, /*blocked_on=*/2),
  };
  const critpath_report r = analyze(samples);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.tasks, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(r.span_ps(), 22);
  EXPECT_EQ(segment_sum(r), 22u);
  for (const path_segment& seg : r.segments) {
    EXPECT_GT(seg.duration_ps(), 0);
  }
}

TEST(CritpathTest, PermutationsOfTheInputAnalyzeIdentically) {
  std::vector<sim_op_sample> samples = {
      make(1, 0, 0, 0, 0, 10),
      make(2, 1, 1, 10, 10, 20, /*blocked_on=*/1),
      make(3, 1, 1, 10, 10, 30, /*blocked_on=*/1),
      make(4, 2, 2, 30, 32, 45, /*blocked_on=*/3),
  };
  const critpath_report base = analyze(samples);
  std::int64_t base_projected[6];
  for (int w = 0; w <= 5; ++w) {
    base_projected[w] = project(samples, static_cast<wait_state>(w));
  }
  std::sort(samples.begin(), samples.end(),
            [](const sim_op_sample& a, const sim_op_sample& b) {
              return a.report.id < b.report.id;
            });
  do {
    const critpath_report r = analyze(samples);
    EXPECT_EQ(r.tasks, base.tasks);
    EXPECT_EQ(r.exact, base.exact);
    EXPECT_EQ(r.span_ps(), base.span_ps());
    EXPECT_EQ(r.window_ps(), base.window_ps());
    for (int i = 0; i <= 5; ++i) {
      EXPECT_EQ(r.state_ps[i], base.state_ps[i]);
    }
    for (int w = 0; w <= 5; ++w) {
      EXPECT_EQ(project(samples, static_cast<wait_state>(w)),
                base_projected[w]);
    }
  } while (std::next_permutation(
      samples.begin(), samples.end(),
      [](const sim_op_sample& a, const sim_op_sample& b) {
        return a.report.id < b.report.id;
      }));
}

TEST(CritpathTest, TiedCompletionsPickTheLowestId) {
  // Both chains end at 30; the walk must anchor on the lowest
  // (group, id) so any input order gives the same path.
  const std::vector<sim_op_sample> samples = {
      make(5, 0, 0, 0, 0, 30),
      make(2, 0, 0, 0, 0, 30),
  };
  const critpath_report r = analyze(samples);
  EXPECT_EQ(r.tasks, (std::vector<std::uint64_t>{2}));
}

// ---------------------------------------------------------------------------
// project(): identity replay and zeroed wait classes
// ---------------------------------------------------------------------------

TEST(ProjectTest, IdentityReplayReproducesTheMeasuredWindow) {
  const std::vector<sim_op_sample> samples = {
      make(1, 0, 5, 9, 12, 20),
      make(2, 2, 2, 20, 20, 35, /*blocked_on=*/1),
      make(3, 3, 3, 20, 22, 30, /*blocked_on=*/1),
  };
  const critpath_report r = analyze(samples);
  EXPECT_EQ(project(samples, wait_state::none), r.window_ps());
}

TEST(ProjectTest, ZeroingHazardCollapsesTheChain) {
  const std::vector<sim_op_sample> samples = {
      make(1, 0, 0, 0, 0, 10),
      make(2, 2, 2, 10, 10, 25, /*blocked_on=*/1),   // exec 15
      make(3, 3, 3, 25, 25, 40, /*blocked_on=*/2),   // exec 15
  };
  EXPECT_EQ(project(samples, wait_state::none), 40);
  // Hazards gone: 2 starts at its submit (2 + 15 = 17), 3 at its
  // submit (3 + 15 = 18); the window lower-bounds at 18.
  EXPECT_EQ(project(samples, wait_state::hazard_blocked), 18);
}

TEST(ProjectTest, ZeroingExecutionLeavesOnlyWaits) {
  const std::vector<sim_op_sample> samples = {
      make(1, 0, 0, 0, 0, 10),
      make(2, 2, 2, 10, 10, 25, /*blocked_on=*/1),
      make(3, 3, 3, 25, 25, 40, /*blocked_on=*/2),
  };
  // All execution zeroed: 1 completes at 0, 2 at max(2,0)=2, 3 at
  // max(3,2)=3.
  EXPECT_EQ(project(samples, wait_state::executing), 3);
}

TEST(ProjectTest, ZeroingWireOnlyAffectsWireHops) {
  const std::vector<sim_op_sample> samples = {
      make(1, 0, 0, 0, 0, 10),
      make(2, 0, 0, 10, 10, 30, /*blocked_on=*/1, /*wire_hop=*/true),
      make(3, 0, 0, 30, 30, 42, /*blocked_on=*/2),
  };
  EXPECT_EQ(project(samples, wait_state::none), 42);
  // The wire hop vanishes: 3 is released when 2 "completes" at 10,
  // then executes its 12 ps.
  EXPECT_EQ(project(samples, wait_state::wire), 22);
  // Zeroing executing keeps the wire hop: 1 finishes instantly, 2
  // still transfers for 20 ps, 3 adds nothing.
  EXPECT_EQ(project(samples, wait_state::executing), 20);
}

TEST(ProjectTest, UnresolvableEdgeKeepsTheMeasuredHazardWait) {
  // 2's blocker is outside the sample set: the hazard wait cannot
  // shrink, so it is kept as an opaque duration in every projection
  // that does not zero hazards.
  const std::vector<sim_op_sample> samples = {
      make(2, 1, 1, 12, 12, 25, /*blocked_on=*/99),
  };
  EXPECT_EQ(project(samples, wait_state::none), 24);
  EXPECT_EQ(project(samples, wait_state::hazard_blocked), 13);
}

// ---------------------------------------------------------------------------
// Scheduler stamps: telescoping timestamps and the wait-counter
// partition, end to end through a real runtime
// ---------------------------------------------------------------------------

core::pim_system_config small_config() {
  core::pim_system_config cfg;
  cfg.org.channels = 1;
  cfg.org.ranks = 1;
  cfg.org.banks = 4;
  cfg.org.subarrays = 4;
  cfg.org.rows = 256;
  cfg.org.columns = 8;
  return cfg;
}

TEST(SchedulerStampsTest, TimestampsTelescope) {
  core::pim_system sys(small_config());
  auto vecs = sys.allocate(1'000, 3);
  // A RAW chain so the second task really blocks on the first.
  runtime::task_future f1 =
      sys.submit_bulk(dram::bulk_op::and_op, vecs[0], &vecs[1], vecs[2]);
  runtime::task_future f2 =
      sys.submit_bulk(dram::bulk_op::or_op, vecs[2], &vecs[1], vecs[0]);
  sys.wait_all();
  for (const runtime::task_future* f : {&f1, &f2}) {
    const runtime::task_report& r = f->report();
    EXPECT_LE(r.admit_ps, r.submit_ps);
    EXPECT_LE(r.submit_ps, r.release_ps);
    EXPECT_LE(r.release_ps, r.start_ps);
    EXPECT_LE(r.start_ps, r.complete_ps);
  }
  // The dependent's release edge points at the blocker, stamped at
  // the blocker's completion instant.
  const runtime::task_report& blocked = f2.report();
  EXPECT_EQ(blocked.blocked_on, f1.report().id);
  EXPECT_EQ(blocked.release_ps, f1.report().complete_ps);
  EXPECT_GT(blocked.release_ps, blocked.submit_ps);
}

TEST(SchedulerStampsTest, WaitCountersPartitionLifetime) {
  core::pim_system sys(small_config());
  auto vecs = sys.allocate(2'000, 4);
  for (int round = 0; round < 4; ++round) {
    sys.submit_bulk(dram::bulk_op::and_op, vecs[0], &vecs[1], vecs[2]);
    sys.submit_bulk(dram::bulk_op::or_op, vecs[2], &vecs[1], vecs[3]);
    sys.submit_bulk(dram::bulk_op::xor_op, vecs[3], &vecs[2], vecs[0]);
  }
  sys.wait_all();
  const runtime::scheduler_stats& s = sys.runtime().stats().sched;
  EXPECT_GT(s.task_lifetime_ps, 0u);
  EXPECT_GT(s.wait_hazard_ps, 0u);  // the chains really blocked
  EXPECT_EQ(s.wait_admission_ps + s.wait_hazard_ps + s.wait_bank_ps +
                s.exec_ps + s.wire_ps,
            s.task_lifetime_ps);
}

TEST(SchedulerStampsTest, AnalyzeRealReportsExactly) {
  core::pim_system sys(small_config());
  auto vecs = sys.allocate(2'000, 4);
  std::vector<runtime::task_future> futures;
  futures.push_back(
      sys.submit_bulk(dram::bulk_op::and_op, vecs[0], &vecs[1], vecs[2]));
  futures.push_back(
      sys.submit_bulk(dram::bulk_op::or_op, vecs[2], &vecs[1], vecs[3]));
  futures.push_back(
      sys.submit_bulk(dram::bulk_op::xor_op, vecs[3], &vecs[0], vecs[1]));
  sys.wait_all();
  std::vector<sim_op_sample> samples;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    samples.push_back({0, static_cast<int>(i), -1, futures[i].report()});
  }
  const critpath_report r = analyze(samples);
  EXPECT_TRUE(r.exact);
  EXPECT_GE(r.tasks.size(), 2u);  // the RAW chain is on the path
  EXPECT_EQ(project(samples, wait_state::none), r.window_ps());
  EXPECT_LE(project(samples, wait_state::hazard_blocked), r.window_ps());
}

}  // namespace
}  // namespace pim::obs

// ---------------------------------------------------------------------------
// Wire protocol: the report's wait-state fields round-trip
// ---------------------------------------------------------------------------

namespace pim::net {
namespace {

runtime::task_report stamped_report() {
  runtime::task_report r;
  r.id = 55;
  r.stream = 2;
  r.kind = runtime::task_kind::bulk_bool;
  r.where = runtime::backend_kind::ambit;
  r.admit_ps = 4;
  r.submit_ps = 10;
  r.release_ps = 15;
  r.start_ps = 20;
  r.complete_ps = 300;
  r.output_bytes = 4096;
  r.blocked_on = 17;
  r.blocked_row = 0xfeedbeef;
  r.wire_hop = true;
  return r;
}

net_frame decode_one(const std::vector<std::uint8_t>& wire) {
  frame_splitter splitter;
  splitter.feed(wire.data(), wire.size());
  auto f = splitter.next();
  EXPECT_TRUE(f.has_value());
  return std::move(*f);
}

TEST(WireCritpathTest, V4RoundTripsTheWaitStateFields) {
  done_resp resp;
  resp.report = stamped_report();
  const net_frame f = decode_one(encode_frame(9, resp));
  const auto& m = std::get<done_resp>(f.msg);
  EXPECT_EQ(m.report.admit_ps, 4);
  EXPECT_EQ(m.report.release_ps, 15);
  EXPECT_EQ(m.report.blocked_on, 17u);
  EXPECT_EQ(m.report.blocked_row, 0xfeedbeefu);
  EXPECT_TRUE(m.report.wire_hop);
  // The rest of the report round-trips untouched.
  EXPECT_EQ(m.report.id, 55u);
  EXPECT_EQ(m.report.complete_ps, 300);
  EXPECT_EQ(m.report.output_bytes, 4096u);
}

}  // namespace
}  // namespace pim::net
