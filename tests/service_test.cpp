// Tests for the sharded PIM service front-end: session routing, the
// client request API, admission control (bounded queues +
// backpressure), fair-share popping, shutdown semantics, and
// bit-for-bit equivalence across shard counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/digest.h"
#include "service/synthetic.h"

namespace pim::service {
namespace {

core::pim_system_config small_system() {
  core::pim_system_config cfg;
  cfg.org.channels = 1;
  cfg.org.ranks = 1;
  cfg.org.banks = 4;
  cfg.org.subarrays = 4;
  cfg.org.rows = 256;
  cfg.org.columns = 8;
  return cfg;
}

service_config small_service(int shards) {
  service_config cfg;
  cfg.shards = shards;
  cfg.system = small_system();
  return cfg;
}

// ---------------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------------

TEST(ShardRouterTest, RangeRoutingMakesContiguousBlocks) {
  shard_router router(4, shard_routing::range, /*keys_per_shard=*/2);
  EXPECT_EQ(router.route(0), 0);
  EXPECT_EQ(router.route(1), 0);
  EXPECT_EQ(router.route(2), 1);
  EXPECT_EQ(router.route(5), 2);
  EXPECT_EQ(router.route(7), 3);
}

TEST(ShardRouterTest, RangeOverflowWrapsRoundRobin) {
  // Keys past shards * keys_per_shard used to clamp onto the last
  // shard, silently hot-spotting it as the population grew; they must
  // wrap round-robin across all shards instead.
  shard_router router(4, shard_routing::range, /*keys_per_shard=*/2);
  // Boundary: the last in-range key vs the first overflow key.
  EXPECT_EQ(router.route(7), 3);
  EXPECT_EQ(router.route(8), 0);
  EXPECT_EQ(router.route(9), 1);
  EXPECT_EQ(router.route(10), 2);
  EXPECT_EQ(router.route(11), 3);
  EXPECT_EQ(router.route(12), 0);  // second wrap
  EXPECT_EQ(router.route(1000), 0);  // (1000 - 8) % 4
  EXPECT_EQ(router.route(1001), 1);

  // A growing population stays balanced: over any large key range the
  // spread between the fullest and emptiest shard is bounded by one
  // block, not linear in the overflow.
  std::vector<int> hits(4, 0);
  for (std::uint64_t key = 0; key < 1000; ++key) {
    ++hits[static_cast<std::size_t>(router.route(key))];
  }
  const auto [lo, hi] = std::minmax_element(hits.begin(), hits.end());
  EXPECT_LE(*hi - *lo, 2);

  // Single-shard degenerate case: everything routes to shard 0.
  shard_router one(1, shard_routing::range, /*keys_per_shard=*/4);
  EXPECT_EQ(one.route(3), 0);
  EXPECT_EQ(one.route(4), 0);
  EXPECT_EQ(one.route(12345), 0);
}

TEST(ShardRouterTest, HashRoutingCoversAllShards) {
  shard_router router(4, shard_routing::hash);
  std::vector<int> hits(4, 0);
  for (std::uint64_t key = 0; key < 64; ++key) {
    const int s = router.route(key);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 4);
    ++hits[static_cast<std::size_t>(s)];
  }
  for (int h : hits) EXPECT_GT(h, 0);  // no empty shard over 64 keys
}

TEST(ShardRouterTest, RejectsInvalidConfig) {
  EXPECT_THROW(shard_router(0), std::invalid_argument);
  EXPECT_THROW(shard_router(2, shard_routing::range, 0),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Client API basics
// ---------------------------------------------------------------------------

TEST(ServiceClientTest, ExecutesBulkOpsCorrectly) {
  pim_service svc(small_service(1));
  svc.start();
  service_client client(svc);

  const bits size = 2'000;
  auto v = client.allocate(size, 3);
  ASSERT_EQ(v.size(), 3u);
  rng gen(7);
  const bitvector a = bitvector::random(size, gen);
  const bitvector b = bitvector::random(size, gen);
  client.write(v[0], a);
  client.write(v[1], b);

  request_future f = client.submit_bulk(dram::bulk_op::xor_op, v[0], &v[1],
                                        v[2]);
  const request_result& r = f.get();
  EXPECT_EQ(r.report.kind, runtime::task_kind::bulk_bool);
  EXPECT_GT(r.report.complete_ps, r.report.submit_ps);
  EXPECT_EQ(client.read(v[2]), a ^ b);

  svc.stop();
}

TEST(ServiceClientTest, ChainedOpsPreserveProgramOrder) {
  pim_service svc(small_service(1));
  svc.start();
  service_client client(svc);

  const bits size = 1'500;
  auto v = client.allocate(size, 4);
  rng gen(11);
  const bitvector a = bitvector::random(size, gen);
  const bitvector b = bitvector::random(size, gen);
  client.write(v[0], a);
  client.write(v[1], b);

  client.submit_bulk(dram::bulk_op::and_op, v[0], &v[1], v[2]);
  client.submit_bulk(dram::bulk_op::or_op, v[2], &v[0], v[3]);
  client.submit_bulk(dram::bulk_op::xor_op, v[0], &v[1], v[2]);  // WAR
  client.wait_all();

  EXPECT_EQ(client.read(v[2]), a ^ b);
  EXPECT_EQ(client.read(v[3]), (a & b) | a);
  svc.stop();
}

TEST(ServiceClientTest, InvalidTaskFailsItsFutureOnly) {
  pim_service svc(small_service(1));
  svc.start();
  service_client client(svc);

  const bits size = 1'000;
  auto v = client.allocate(size, 3);
  // Forced misroute: a row copy on the Ambit backend is invalid and
  // must fail the request's future, not wedge the shard.
  runtime::pim_task bad;
  bad.payload = runtime::row_copy_args{v[0].rows[0], v[1].rows[0], true};
  bad.forced_backend = runtime::backend_kind::ambit;
  request_future f = client.submit(std::move(bad));
  EXPECT_THROW(f.get(), std::runtime_error);
  EXPECT_THROW(client.wait_all(), std::runtime_error);

  // The shard is still serviceable afterwards.
  rng gen(3);
  const bitvector a = bitvector::random(size, gen);
  client.write(v[0], a);
  client.submit_bulk(dram::bulk_op::not_op, v[0], nullptr, v[2]);
  client.wait_all();
  EXPECT_EQ(client.read(v[2]), ~a);
  svc.stop();
}

// ---------------------------------------------------------------------------
// Admission control and backpressure
// ---------------------------------------------------------------------------

TEST(ServiceAdmissionTest, TrySubmitRejectsWhenQueueFull) {
  service_config cfg = small_service(1);
  cfg.shard.session_queue_capacity = 2;
  pim_service svc(cfg);
  svc.start();
  service_client client(svc);
  const bits size = 1'000;
  auto v = client.allocate(size, 3);

  svc.pause();  // freeze the worker so the queue cannot drain
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < 6; ++i) {
    auto f = client.try_submit(
        runtime::make_bulk_task(dram::bulk_op::and_op, v[0], &v[1], v[2]));
    f ? ++accepted : ++rejected;
  }
  EXPECT_EQ(accepted, 2);  // exactly the queue capacity
  EXPECT_EQ(rejected, 4);
  EXPECT_EQ(svc.stats().requests_rejected, 4u);

  svc.resume();
  client.wait_all();  // the admitted requests still complete
  const service_stats stats = svc.stats();
  EXPECT_EQ(stats.tasks_submitted, 2u);
  svc.stop();
}

TEST(ServiceAdmissionTest, QueuesAreBoundedPerSession) {
  service_config cfg = small_service(1);
  cfg.shard.session_queue_capacity = 4;
  pim_service svc(cfg);
  svc.start();
  service_client heavy(svc);
  service_client light(svc);
  const bits size = 1'000;
  auto hv = heavy.allocate(size, 3);
  auto lv = light.allocate(size, 3);

  svc.pause();
  // The heavy tenant fills its own queue; the light tenant's separate
  // bound means it is not locked out.
  for (int i = 0; i < 8; ++i) {
    heavy.try_submit(
        runtime::make_bulk_task(dram::bulk_op::or_op, hv[0], &hv[1], hv[2]));
  }
  auto admitted = light.try_submit(
      runtime::make_bulk_task(dram::bulk_op::or_op, lv[0], &lv[1], lv[2]));
  EXPECT_TRUE(admitted.has_value());
  svc.resume();
  heavy.wait_all();
  light.wait_all();
  svc.stop();
}

TEST(ServiceAdmissionTest, StopFailsQueuedRequests) {
  service_config cfg = small_service(1);
  cfg.shard.session_queue_capacity = 8;
  pim_service svc(cfg);
  svc.start();
  service_client client(svc);
  const bits size = 1'000;
  auto v = client.allocate(size, 3);

  svc.pause();
  request_future f = client.submit(
      runtime::make_bulk_task(dram::bulk_op::and_op, v[0], &v[1], v[2]));
  svc.stop();  // never resumed: the queued request must fail, not hang
  EXPECT_THROW(f.get(), std::runtime_error);
  EXPECT_GE(svc.stats().requests_failed, 1u);
}

// ---------------------------------------------------------------------------
// Fair share
// ---------------------------------------------------------------------------

TEST(ServiceFairShareTest, LightTenantIsNotStarvedByHeavyBacklog) {
  service_config cfg = small_service(1);
  cfg.shard.session_queue_capacity = 64;
  pim_service svc(cfg);
  svc.start();
  service_client heavy(svc, /*weight=*/1.0);
  service_client light(svc, /*weight=*/1.0);
  const bits size = 1'000;
  auto hv = heavy.allocate(size, 3);
  auto lv = light.allocate(size, 3);
  rng gen(5);
  heavy.write(hv[0], bitvector::random(size, gen));
  heavy.write(hv[1], bitvector::random(size, gen));
  light.write(lv[0], bitvector::random(size, gen));
  light.write(lv[1], bitvector::random(size, gen));

  // Heavy queues 32 tasks first; light queues 4 afterwards. Strict
  // FIFO would finish all 32 before light's first; stride scheduling
  // must interleave them.
  svc.pause();
  std::vector<request_future> heavy_f;
  for (int i = 0; i < 32; ++i) {
    heavy_f.push_back(heavy.submit(
        runtime::make_bulk_task(dram::bulk_op::xor_op, hv[0], &hv[1], hv[2])));
  }
  std::vector<request_future> light_f;
  for (int i = 0; i < 4; ++i) {
    light_f.push_back(light.submit(
        runtime::make_bulk_task(dram::bulk_op::xor_op, lv[0], &lv[1], lv[2])));
  }
  svc.resume();
  heavy.wait_all();
  light.wait_all();

  const picoseconds light_last = light_f.back().get().report.complete_ps;
  int heavy_done_before_light = 0;
  for (const request_future& f : heavy_f) {
    if (f.get().report.complete_ps <= light_last) ++heavy_done_before_light;
  }
  // Equal weights => light's 4 tasks finish within roughly the first 8
  // completions; far fewer than half of heavy's backlog may precede
  // them.
  EXPECT_LE(heavy_done_before_light, 16);
  svc.stop();
}

// ---------------------------------------------------------------------------
// Sharded equivalence and telemetry
// ---------------------------------------------------------------------------

std::vector<synthetic_config> small_population(int clients) {
  std::vector<synthetic_config> population;
  for (int i = 0; i < clients; ++i) {
    synthetic_config c;
    c.ops = 12;
    c.groups = 2;
    c.vector_bits = 1'000;
    c.seed = static_cast<std::uint64_t>(40 + i);
    population.push_back(c);
  }
  return population;
}

TEST(ServiceEquivalenceTest, DigestsMatchAcrossShardCountsAndReference) {
  const auto population = small_population(6);

  // Reference: each client straight on its own pim_system, synchronous.
  std::vector<std::uint64_t> expected;
  for (const synthetic_config& c : population) {
    core::pim_system sys(small_system());
    expected.push_back(run_synthetic_reference(sys, c).digest);
  }

  for (int shards : {1, 3}) {
    service_config cfg = small_service(shards);
    cfg.routing = shard_routing::range;
    cfg.sessions_per_shard = 2;
    pim_service svc(cfg);
    svc.start();
    // Sequential clients: shard assignment is then deterministic.
    std::vector<std::uint64_t> digests;
    for (const synthetic_config& c : population) {
      digests.push_back(run_synthetic_client(svc, c).digest);
    }
    svc.stop();
    EXPECT_EQ(digests, expected) << "shards=" << shards;
  }
}

TEST(ServiceStatsTest, AggregatesAcrossShards) {
  service_config cfg = small_service(2);
  cfg.routing = shard_routing::range;
  cfg.sessions_per_shard = 1;
  pim_service svc(cfg);
  svc.start();
  const auto population = small_population(2);
  for (const synthetic_config& c : population) {
    run_synthetic_client(svc, c);
  }
  svc.stop();

  const service_stats stats = svc.stats();
  ASSERT_EQ(stats.shards.size(), 2u);
  EXPECT_EQ(stats.sessions, 2);
  // One client per shard: both shards saw work.
  EXPECT_GT(stats.shards[0].tasks_submitted, 0u);
  EXPECT_GT(stats.shards[1].tasks_submitted, 0u);
  EXPECT_EQ(stats.tasks_submitted, 24u);  // 2 clients x 12 ops
  EXPECT_EQ(stats.sched_submitted, 24u);
  EXPECT_EQ(stats.sched_completed, 24u);
  EXPECT_EQ(stats.requests_failed, 0u);
  EXPECT_GT(stats.output_bytes, 0u);
  EXPECT_GT(stats.makespan_ps, 0);
  EXPECT_GT(stats.aggregate_gbps(), 0.0);

  // The JSON emission covers the whole tree without throwing.
  json_writer json;
  json.begin_object();
  stats.to_json(json);
  json.end_object();
  EXPECT_NE(json.str().find("\"shards\""), std::string::npos);
  EXPECT_NE(json.str().find("\"aggregate_gbps\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Row-granular hazard drains (the old code drained the whole runtime on
// every allocate/write/read, serializing all sessions' compute behind
// any one session's metadata ops)
// ---------------------------------------------------------------------------

TEST(ServiceHazardTest, IndependentSessionsDoNotSerializeOnMetadataOps) {
  service_config cfg = small_service(1);
  pim_service svc(cfg);
  svc.start();
  service_client compute(svc);
  service_client meta(svc);

  const bits size = 1'000;
  // Independent groups stripe across banks, so hazard-free tasks can
  // genuinely overlap.
  std::vector<std::vector<dram::bulk_vector>> groups;
  for (int g = 0; g < 4; ++g) groups.push_back(compute.allocate(size, 3));
  auto mv = meta.allocate(size, 1);
  rng gen(9);
  std::vector<bitvector> a, b;
  for (auto& g : groups) {
    a.push_back(bitvector::random(size, gen));
    b.push_back(bitvector::random(size, gen));
    compute.write(g[0], a.back());
    compute.write(g[1], b.back());
  }
  const bitvector md = bitvector::random(size, gen);

  // Queue everything while paused so the pop order is deterministic:
  // stride popping interleaves meta's writes between compute's tasks.
  svc.pause();
  std::vector<request_future> fs;
  for (int g = 0; g < 4; ++g) {
    fs.push_back(compute.submit_bulk(dram::bulk_op::xor_op, groups[g][0],
                                     &groups[g][1], groups[g][2]));
  }
  std::vector<request_future> ws;
  for (int i = 0; i < 4; ++i) {
    request r;
    r.session = meta.id();
    r.payload = write_args{mv[0], md};
    ws.push_back(svc.submit(std::move(r)));
  }
  svc.resume();
  compute.wait_all();
  for (const request_future& w : ws) w.get();

  // With the old always-drain behavior the interleaved writes forced
  // every compute task to finish alone before the next was submitted:
  // no two tasks' [start, complete) windows could ever overlap. With
  // hazard-scoped drains the writes touch unrelated rows and all four
  // tasks run concurrently.
  int overlapping = 0;
  for (std::size_t i = 0; i < fs.size(); ++i) {
    for (std::size_t j = i + 1; j < fs.size(); ++j) {
      const runtime::task_report& x = fs[i].get().report;
      const runtime::task_report& y = fs[j].get().report;
      if (x.start_ps < y.complete_ps && y.start_ps < x.complete_ps) {
        ++overlapping;
      }
    }
  }
  EXPECT_GT(overlapping, 0);
  for (int g = 0; g < 4; ++g) {
    EXPECT_EQ(compute.read(groups[g][2]),
              a[static_cast<std::size_t>(g)] ^ b[static_cast<std::size_t>(g)]);
  }
  EXPECT_EQ(meta.read(mv[0]), md);
  svc.stop();
  // The unrelated metadata ops never drained...
  EXPECT_EQ(svc.stats().shards[0].hazard_drains, 0u);
}

TEST(ServiceHazardTest, ReadOfPendingResultStillDrains) {
  service_config cfg = small_service(1);
  pim_service svc(cfg);
  svc.start();
  service_client client(svc);
  const bits size = 1'000;
  auto v = client.allocate(size, 3);
  rng gen(21);
  const bitvector a = bitvector::random(size, gen);
  const bitvector b = bitvector::random(size, gen);
  client.write(v[0], a);
  client.write(v[1], b);
  // Queue the op and the read back-to-back while paused: the worker
  // then provably executes the read while the task is still in flight,
  // and the hazard drain must make it observe the completed result.
  svc.pause();
  client.submit_bulk(dram::bulk_op::nand_op, v[0], &v[1], v[2]);
  request r;
  r.session = client.id();
  r.payload = read_args{v[2]};
  request_future rf = svc.submit(std::move(r));
  svc.resume();
  EXPECT_EQ(rf.get().data, ~(a & b));
  client.wait_all();
  svc.stop();
  EXPECT_GE(svc.stats().hazard_drains, 1u);
}

// ---------------------------------------------------------------------------
// Cross-shard plans
// ---------------------------------------------------------------------------

service_config two_shard_range() {
  service_config cfg = small_service(2);
  cfg.routing = shard_routing::range;
  cfg.sessions_per_shard = 1;
  return cfg;
}

TEST(ServiceCrossShardTest, CrossShardOpsMatchFunctionalReference) {
  pim_service svc(two_shard_range());
  svc.start();
  service_client c0(svc);
  service_client c1(svc);
  ASSERT_EQ(c0.shard_index(), 0);
  ASSERT_EQ(c1.shard_index(), 1);

  const bits size = 1'500;
  auto v0 = c0.allocate(size, 2);  // a, and a destination for the unary op
  auto v1 = c1.allocate(size, 2);  // b, d
  rng gen(31);
  const bitvector a = bitvector::random(size, gen);
  const bitvector b = bitvector::random(size, gen);
  c0.write(v0[0], a);
  c1.write(v1[0], b);

  // Binary op across shards: a lives on shard 0, b and d on shard 1.
  const shared_vector sb{c1.id(), v1[0]};
  const shared_vector sd{c1.id(), v1[1]};
  request_future f =
      c0.submit_shared(dram::bulk_op::xor_op, c0.share(v0[0]), &sb, sd);
  f.get();
  EXPECT_EQ(c1.read(v1[1]), a ^ b);

  // Unary op across shards: source on shard 1, destination on shard 0.
  request_future g =
      c0.submit_shared(dram::bulk_op::not_op, sb, nullptr, c0.share(v0[1]));
  g.get();
  EXPECT_EQ(c0.read(v0[1]), ~b);

  // Chained: a cross-shard result feeds a local op (hazard ordering
  // across the plan's write-back).
  c1.submit_bulk(dram::bulk_op::and_op, v1[1], &v1[0], v1[1]);
  c1.wait_all();
  EXPECT_EQ(c1.read(v1[1]), (a ^ b) & b);

  svc.stop();
  const service_stats stats = svc.stats();
  EXPECT_EQ(stats.cross_plans, 2u);
  EXPECT_GT(stats.staged_bytes, 0u);
  EXPECT_GT(stats.exported_bytes, 0u);
  EXPECT_EQ(stats.requests_failed, 0u);
}

TEST(ServiceCrossShardTest, TwoBankOrganizationMatchesReferenceDigest) {
  // The smallest organization a shard accepts: one channel with two
  // (rank, bank) pairs, so every row's transfers are priced against
  // the single wire row in the other bank.
  service_config cfg = two_shard_range();
  cfg.system.org.banks = 2;
  pim_service svc(cfg);
  svc.start();
  service_client c0(svc);
  service_client c1(svc);
  ASSERT_EQ(c0.shard_index(), 0);
  ASSERT_EQ(c1.shard_index(), 1);

  // Rows in both banks, the last one partial.
  const bits size = 3 * cfg.system.org.row_bits() + 100;
  auto v0 = c0.allocate(size, 2);
  auto v1 = c1.allocate(size, 2);
  rng gen(61);
  const bitvector a = bitvector::random(size, gen);
  const bitvector b = bitvector::random(size, gen);
  c0.write(v0[0], a);
  c1.write(v1[0], b);
  const shared_vector sb{c1.id(), v1[0]};
  c0.submit_shared(dram::bulk_op::xor_op, c0.share(v0[0]), &sb,
                   c1.share(v1[1]))
      .get();
  c1.submit_shared(dram::bulk_op::not_op, c1.share(v1[1]), nullptr,
                   c0.share(v0[1]))
      .get();

  const bitvector x = a ^ b;
  EXPECT_EQ(c0.digest(), fnv1a(fnv1a(fnv1a_basis, a), ~x));
  EXPECT_EQ(c1.digest(), fnv1a(fnv1a(fnv1a_basis, b), x));
  svc.stop();
  const service_stats stats = svc.stats();
  EXPECT_EQ(stats.cross_plans, 2u);
  EXPECT_GT(stats.moved_wire_bytes, 0u);
  EXPECT_EQ(stats.requests_failed, 0u);
}

TEST(ServiceCrossShardTest, PlannerPicksShardMinimizingBytesMoved) {
  pim_service svc(two_shard_range());
  svc.start();
  service_client c0(svc);
  service_client c1(svc);
  const bits size = 4'000;
  auto v0 = c0.allocate(size, 2);  // a, b on shard 0
  auto v1 = c1.allocate(size, 1);  // d on shard 1
  rng gen(47);
  const bitvector a = bitvector::random(size, gen);
  const bitvector b = bitvector::random(size, gen);
  c0.write(v0[0], a);
  c0.write(v0[1], b);

  // Two inputs on shard 0 vs one output on shard 1: moving d's bytes
  // (write-back) is cheaper than moving a+b, so the plan must execute
  // on shard 0.
  const shared_vector sa{c0.id(), v0[0]};
  const shared_vector sb{c0.id(), v0[1]};
  c1.submit_shared(dram::bulk_op::or_op, sa, &sb, c1.share(v1[0])).get();
  EXPECT_EQ(c1.read(v1[0]), a | b);

  svc.stop();
  const service_stats stats = svc.stats();
  EXPECT_EQ(stats.shards[0].cross_plans, 1u);
  EXPECT_EQ(stats.shards[1].cross_plans, 0u);
  // The write-back landed (and was priced) on d's shard.
  EXPECT_GE(stats.shards[1].staged_bytes, static_cast<bytes>(size / 8));
  // Nothing was exported from shard 1 — its only involvement is the
  // landing.
  EXPECT_EQ(stats.shards[1].exported_bytes, 0u);
}

TEST(ServiceCrossShardTest, SingleOwnerSharedSubmitTakesFastPath) {
  pim_service svc(two_shard_range());
  svc.start();
  service_client c0(svc);
  service_client c1(svc);
  const bits size = 1'000;
  auto v1 = c1.allocate(size, 3);
  rng gen(53);
  const bitvector a = bitvector::random(size, gen);
  const bitvector b = bitvector::random(size, gen);
  c1.write(v1[0], a);
  c1.write(v1[1], b);
  // All operands owned by c1: no staging, direct run on shard 1 even
  // though the issuer lives on shard 0.
  const shared_vector sa{c1.id(), v1[0]};
  const shared_vector sb{c1.id(), v1[1]};
  const shared_vector sd{c1.id(), v1[2]};
  c0.submit_shared(dram::bulk_op::and_op, sa, &sb, sd).get();
  EXPECT_EQ(c1.read(v1[2]), a & b);
  svc.stop();
  EXPECT_EQ(svc.stats().cross_plans, 0u);
}

// ---------------------------------------------------------------------------
// Session migration and rebalancing
// ---------------------------------------------------------------------------

TEST(ServiceMigrationTest, MigrationPreservesDataOrderingAndHandles) {
  pim_service svc(two_shard_range());
  svc.start();
  service_client c(svc);
  ASSERT_EQ(c.shard_index(), 0);
  const bits size = 2'000;
  auto v = c.allocate(size, 3);
  rng gen(61);
  const bitvector a = bitvector::random(size, gen);
  const bitvector b = bitvector::random(size, gen);
  c.write(v[0], a);
  c.write(v[1], b);

  // An op in flight (or queued) when the migration starts must land
  // before the post-migration op, on the new shard, same handles.
  c.submit_bulk(dram::bulk_op::and_op, v[0], &v[1], v[2]);
  svc.migrate_session(c.id(), 1);
  EXPECT_EQ(c.shard_index(), 1);
  c.submit_bulk(dram::bulk_op::xor_op, v[2], &v[0], v[2]);  // RAW chain
  c.wait_all();
  EXPECT_EQ(c.read(v[2]), (a & b) ^ a);

  // Allocation after migration lands on the new shard and coexists
  // with migrated vectors (one op per co-located group, as always).
  auto w = c.allocate(size, 3);
  c.write(w[0], b);
  c.write(w[1], a);
  c.submit_bulk(dram::bulk_op::or_op, w[0], &w[1], w[2]);
  c.wait_all();
  EXPECT_EQ(c.read(w[2]), b | a);

  // Migrate back: handles still valid.
  svc.migrate_session(c.id(), 0);
  EXPECT_EQ(c.shard_index(), 0);
  EXPECT_EQ(c.read(v[2]), (a & b) ^ a);
  EXPECT_EQ(c.read(w[2]), b | a);

  svc.stop();
  const service_stats stats = svc.stats();
  EXPECT_EQ(stats.migrations, 2u);
  EXPECT_EQ(stats.requests_failed, 0u);
}

TEST(ServiceMigrationTest, MigratedSessionMatchesReferenceDigest) {
  synthetic_config sc;
  sc.ops = 10;
  sc.groups = 2;
  sc.vector_bits = 1'200;
  sc.seed = 77;

  core::pim_system reference(small_system());
  const std::uint64_t expected =
      run_synthetic_reference(reference, sc).digest;

  pim_service svc(two_shard_range());
  svc.start();
  service_client c(svc);
  // Interleave the chain with migrations: same digest as never moving.
  std::vector<dram::bulk_vector> v;
  for (int g = 0; g < sc.groups; ++g) {
    auto group = c.allocate(sc.vector_bits, synthetic_group_vectors);
    v.insert(v.end(), group.begin(), group.end());
  }
  rng data(sc.seed ^ 0xa5a5a5a5a5a5a5a5ull);
  for (const dram::bulk_vector& vec : v) {
    c.write(vec, bitvector::random(vec.size, data));
  }
  int i = 0;
  for (const synthetic_op& op : make_synthetic_ops(sc)) {
    const dram::bulk_vector* b =
        op.b < 0 ? nullptr : &v[static_cast<std::size_t>(op.b)];
    c.submit_bulk(op.op, v[static_cast<std::size_t>(op.a)], b,
                  v[static_cast<std::size_t>(op.d)]);
    if (++i % 3 == 0) svc.migrate_session(c.id(), i % 2);
  }
  EXPECT_EQ(c.digest(), expected);
  svc.stop();
}

TEST(ServiceRebalanceTest, DrainsHotSpottedShard) {
  // Route every session onto shard 0 (range routing with a huge block),
  // then let the rebalancer spread the backlogged ones. Migration
  // needs live workers (its captures flow through the shard queues),
  // so the backlog is built under pause but rebalance runs after
  // resume, polled while the hot shard chews through it.
  service_config cfg = small_service(3);
  cfg.routing = shard_routing::range;
  cfg.sessions_per_shard = 64;
  cfg.shard.session_queue_capacity = 64;
  pim_service svc(cfg);
  svc.start();
  std::vector<std::unique_ptr<service_client>> clients;
  // 16-row vectors x 64 ops x 5 tenants (more tenants than shards: the
  // oversubscription the policy acts on): a backlog whose simulated
  // drain takes long enough (tens of ms wall) that the skew is
  // reliably observable after resume.
  const int tenants = 5;
  const bits size = 64'000;
  rng gen(83);
  std::vector<std::vector<dram::bulk_vector>> vs;
  for (int i = 0; i < tenants; ++i) {
    clients.push_back(std::make_unique<service_client>(svc));
    ASSERT_EQ(clients.back()->shard_index(), 0);
    vs.push_back(clients.back()->allocate(size, 3));
    clients.back()->write(vs.back()[0], bitvector::random(size, gen));
    clients.back()->write(vs.back()[1], bitvector::random(size, gen));
  }
  svc.pause();
  for (int i = 0; i < tenants; ++i) {
    for (int k = 0; k < 64; ++k) {
      clients[static_cast<std::size_t>(i)]->submit_bulk(
          dram::bulk_op::xor_op, vs[static_cast<std::size_t>(i)][0],
          &vs[static_cast<std::size_t>(i)][1],
          vs[static_cast<std::size_t>(i)][2]);
    }
  }
  svc.resume();
  int moved = 0;
  for (int tries = 0; tries < 1000 && moved == 0; ++tries) {
    moved = svc.rebalance(/*threshold=*/1.2);
  }
  EXPECT_GE(moved, 1);
  // Rebalancing moved sessions (and their backlogs) off the hot shard.
  std::vector<int> homes(tenants);
  for (int i = 0; i < tenants; ++i) {
    homes[static_cast<std::size_t>(i)] =
        clients[static_cast<std::size_t>(i)]->shard_index();
  }
  EXPECT_TRUE(std::any_of(homes.begin(), homes.end(),
                          [](int h) { return h != 0; }));
  for (auto& c : clients) c->wait_all();
  svc.stop();
  EXPECT_EQ(svc.stats().requests_failed, 0u);
  EXPECT_GE(svc.stats().migrations, 1u);
}

TEST(ServiceMigrationTest, RepeatedMigrationDoesNotExhaustCapacity) {
  // Regression for the migrated-row capacity leak: before the Ambit
  // allocator grew a free list, every migrate-away left the source
  // shard's physical rows allocated forever, so ping-ponging one
  // session between two shards ran each shard out of subarray capacity
  // after a few dozen moves. The total rows cycled through each shard
  // here is several times its capacity — only reclaim-on-forget can
  // survive it.
  const core::pim_system_config sys_cfg = small_system();
  // Capacity per shard: channels*ranks*banks*subarrays stripe units x
  // data rows each. small_system: 16 units x 54 rows = 864 data rows.
  pim_service svc(two_shard_range());
  svc.start();
  service_client c(svc);
  ASSERT_EQ(c.shard_index(), 0);

  const bits size = 6 * sys_cfg.org.row_bits();  // 6 rows per vector
  auto v = c.allocate(size, 3);                  // one group: 18 rows
  rng gen(29);
  const bitvector a = bitvector::random(size, gen);
  const bitvector b = bitvector::random(size, gen);
  c.write(v[0], a);
  c.write(v[1], b);
  c.submit_bulk(dram::bulk_op::xor_op, v[0], &v[1], v[2]);
  c.wait_all();

  // 60 round trips x 18 rows = 1080 rows through each shard's
  // allocator — beyond the 864-row capacity unless freed rows are
  // recycled.
  for (int trip = 0; trip < 60; ++trip) {
    svc.migrate_session(c.id(), 1);
    svc.migrate_session(c.id(), 0);
  }
  // Contents and handles survived every move.
  EXPECT_EQ(c.read(v[2]), a ^ b);
  c.submit_bulk(dram::bulk_op::and_op, v[0], &v[1], v[2]);
  c.wait_all();
  EXPECT_EQ(c.read(v[2]), a & b);
  svc.stop();
  EXPECT_EQ(svc.stats().migrations, 120u);
  EXPECT_EQ(svc.stats().requests_failed, 0u);
}

TEST(ServiceBackendTest, FleetWithPlansAndMigrationRunsOnlyInDram) {
  // Every task the service submits lands on Ambit (bulk ops) or
  // RowClone (plan staging and write-back, migration capture and
  // install), never on the runtime's host or NDP executor pools. That
  // is why the shard's admission stride is the stack's one fair-share
  // point: if host or NDP work ever reaches a shard, its executor
  // queues need fair share too and this test says so.
  service_config cfg = two_shard_range();
  cfg.sessions_per_shard = 2;
  pim_service svc(cfg);
  svc.start();
  std::vector<synthetic_config> population = small_population(4);
  for (synthetic_config& c : population) c.cross_fraction = 0.5;
  run_synthetic_fleet(svc, population, /*burst=*/false);
  svc.migrate_session(0, 1 - svc.owner_shard(0));
  svc.stop();

  const service_stats stats = svc.stats();
  EXPECT_GT(stats.cross_plans, 0u);
  EXPECT_EQ(stats.migrations, 1u);
  EXPECT_EQ(stats.requests_failed, 0u);
  for (const shard_stats& s : stats.shards) {
    EXPECT_GT(s.runtime.backends.count(runtime::backend_kind::ambit), 0u)
        << "shard " << s.shard;
    for (const auto& [backend, b] : s.runtime.backends) {
      EXPECT_TRUE(backend == runtime::backend_kind::ambit ||
                  backend == runtime::backend_kind::rowclone)
          << runtime::to_string(backend) << " ran " << b.tasks
          << " tasks on shard " << s.shard;
    }
  }
}

TEST(ServiceStatsTest, TracksPerSessionLatencyPercentiles) {
  pim_service svc(small_service(2));
  svc.start();
  service_client c1(svc);
  service_client c2(svc);
  const bits size = 2'000;
  rng gen(31);
  for (service_client* c : {&c1, &c2}) {
    auto v = c->allocate(size, 3);
    c->write(v[0], bitvector::random(size, gen));
    c->write(v[1], bitvector::random(size, gen));
    for (int i = 0; i < 8; ++i) {
      c->submit_bulk(dram::bulk_op::or_op, v[0], &v[1], v[2]);
    }
    c->wait_all();
  }
  svc.stop();

  const service_stats stats = svc.stats();
  // Every client-visible request (allocate + 2 writes + 8 submits +
  // reads from wait_all... at least 11 per session) charged a latency
  // sample to its session.
  ASSERT_EQ(stats.session_latency.size(), 2u);
  for (const session_id id : {c1.id(), c2.id()}) {
    auto it = stats.session_latency.find(id);
    ASSERT_NE(it, stats.session_latency.end());
    const latency_stats s = it->second.summary();
    EXPECT_GE(s.count, 11u);
    EXPECT_GT(s.p50_us, 0.0);
    EXPECT_LE(s.p50_us, s.p95_us);
    EXPECT_LE(s.p95_us, s.p99_us);
  }
  // The service-wide histogram folds both sessions together.
  EXPECT_EQ(stats.latency.count(),
            stats.session_latency.at(c1.id()).count() +
                stats.session_latency.at(c2.id()).count());

  // And the telemetry document carries the percentiles.
  json_writer json;
  json.begin_object();
  stats.to_json(json);
  json.end_object();
  EXPECT_NE(json.str().find("\"latency\""), std::string::npos);
  EXPECT_NE(json.str().find("\"session_latency\""), std::string::npos);
  EXPECT_NE(json.str().find("\"p99_us\""), std::string::npos);
}

TEST(ServiceSessionTest, InvalidWeightsAreRefusedWithoutARecord) {
  pim_service svc(small_service(2));
  svc.start();
  for (const double w : {std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN(), 0.0,
                         -1.0}) {
    EXPECT_THROW(svc.open_session(w), std::invalid_argument) << w;
  }
  // No id was minted for a refused weight: the first accepted session
  // is id 0, and the ids after it have no routable record.
  EXPECT_EQ(svc.open_session(1.0).id, 0u);
  EXPECT_NO_THROW(svc.owner_shard(0));
  EXPECT_THROW(svc.owner_shard(1), std::invalid_argument);
  svc.stop();
  EXPECT_EQ(svc.stats().sessions, 1);
}

TEST(ServiceSessionTest, PlanIssuerIsCountedOnce) {
  // Range routing, two sessions per shard: sessions 0 and 1 live on
  // shard 0, sessions 2 and 3 on shard 1.
  service_config cfg = two_shard_range();
  cfg.sessions_per_shard = 2;
  pim_service svc(cfg);
  svc.start();
  service_client issuer(svc);
  service_client other(svc);
  service_client owner_a(svc);
  service_client owner_d(svc);
  ASSERT_EQ(issuer.shard_index(), 0);
  ASSERT_EQ(owner_a.shard_index(), 1);
  ASSERT_EQ(owner_d.shard_index(), 1);

  // A mixed-owner op whose operands all live on shard 1: the plan runs
  // there and opens an admission queue for the issuer on shard 1.
  const bits size = 1'000;
  const auto va = owner_a.allocate(size, 1);
  const auto vd = owner_d.allocate(size, 1);
  rng gen(71);
  const bitvector a = bitvector::random(size, gen);
  owner_a.write(va[0], a);
  issuer
      .submit_shared(dram::bulk_op::not_op, owner_a.share(va[0]), nullptr,
                     owner_d.share(vd[0]))
      .get();
  EXPECT_EQ(owner_d.read(vd[0]), ~a);

  const service_stats stats = svc.stats();
  EXPECT_EQ(stats.cross_plans, 1u);
  EXPECT_EQ(stats.sessions, 4);
  EXPECT_EQ(stats.shards[0].sessions, 2);
  EXPECT_EQ(stats.shards[1].sessions, 3);  // the issuer's queue too
  svc.stop();
}

TEST(ServiceShardTest, OrganizationNeedsTwoBanksPerChannel) {
  // Inter-shard transfers are priced as PSM copies between a row and a
  // wire row in another (rank, bank) of its channel.
  service_config cfg = small_service(1);
  cfg.system.org.banks = 1;
  EXPECT_THROW({ pim_service svc(cfg); }, std::invalid_argument);
  cfg.system.org.channels = 2;  // still one (rank, bank) per channel
  EXPECT_THROW({ pim_service svc(cfg); }, std::invalid_argument);
  cfg.system.org.ranks = 2;  // two ranks of one bank each suffice
  EXPECT_NO_THROW({ pim_service svc(cfg); });
}

TEST(ServiceSessionTest, SessionsSpreadAndClientsSeeTheirShard) {
  service_config cfg = small_service(4);
  cfg.routing = shard_routing::range;
  cfg.sessions_per_shard = 2;
  pim_service svc(cfg);
  svc.start();
  std::vector<service_client> clients;
  clients.reserve(8);
  std::vector<int> per_shard(4, 0);
  for (int i = 0; i < 8; ++i) {
    clients.emplace_back(svc);
    ++per_shard[static_cast<std::size_t>(clients.back().shard_index())];
  }
  for (int count : per_shard) EXPECT_EQ(count, 2);
  svc.stop();
}

}  // namespace
}  // namespace pim::service
