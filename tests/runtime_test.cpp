// Tests for the asynchronous batched PIM runtime: task futures and
// reports, hazard-ordered scheduling, equivalence of batched and
// synchronous execution, offload-aware dispatch, and the multi-tenant
// workload driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/pim_system.h"
#include "runtime/workload.h"

namespace pim::runtime {
namespace {

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

// ---------------------------------------------------------------------------
// Futures and reports
// ---------------------------------------------------------------------------

TEST(TaskFutureTest, EmptyFutureThrows) {
  task_future f;
  EXPECT_FALSE(f.valid());
  EXPECT_FALSE(f.ready());
  EXPECT_THROW(f.report(), std::logic_error);
}

TEST(TaskFutureTest, ReportBeforeCompletionThrows) {
  core::pim_system sys(small_config());
  auto vecs = sys.allocate(1'000, 3);
  task_future f =
      sys.submit_bulk(dram::bulk_op::and_op, vecs[0], &vecs[1], vecs[2]);
  ASSERT_TRUE(f.valid());
  EXPECT_FALSE(f.ready());
  EXPECT_THROW(f.report(), std::logic_error);
  sys.wait(f);
  EXPECT_TRUE(f.ready());
  EXPECT_EQ(f.report().where, backend_kind::ambit);
}

TEST(TaskReportTest, ThroughputGuardsZeroLatency) {
  task_report r;
  r.output_bytes = 4096;
  r.submit_ps = 1000;
  r.complete_ps = 1000;  // zero-latency completion
  EXPECT_EQ(r.latency(), 0);
  EXPECT_EQ(r.throughput_gbps(), 0.0);

  r.complete_ps = 2000;
  EXPECT_GT(r.throughput_gbps(), 0.0);
}

TEST(TaskReportTest, TimestampsAreOrdered) {
  core::pim_system sys(small_config());
  auto vecs = sys.allocate(1'000, 3);
  task_future f =
      sys.submit_bulk(dram::bulk_op::or_op, vecs[0], &vecs[1], vecs[2]);
  sys.wait(f);
  const task_report& r = f.report();
  EXPECT_LE(r.submit_ps, r.start_ps);
  EXPECT_LT(r.start_ps, r.complete_ps);
  EXPECT_GT(r.throughput_gbps(), 0.0);
}

// ---------------------------------------------------------------------------
// Batched execution: correctness and hazard ordering
// ---------------------------------------------------------------------------

TEST(SchedulerTest, BatchedMatchesSynchronousBitForBit) {
  const bits size = 5'000;
  rng gen(42);
  const bitvector a = bitvector::random(size, gen);
  const bitvector b = bitvector::random(size, gen);
  const bitvector c = bitvector::random(size, gen);

  // Synchronous reference.
  core::pim_system sync_sys(small_config());
  auto sv = sync_sys.allocate(size, 5);
  sync_sys.write(sv[0], a);
  sync_sys.write(sv[1], b);
  sync_sys.write(sv[2], c);
  sync_sys.execute(dram::bulk_op::and_op, sv[0], &sv[1], sv[3]);
  sync_sys.execute(dram::bulk_op::xor_op, sv[3], &sv[2], sv[4]);
  sync_sys.execute(dram::bulk_op::nor_op, sv[4], &sv[0], sv[3]);

  // Same chain, submitted all at once.
  core::pim_system batched_sys(small_config());
  auto bv = batched_sys.allocate(size, 5);
  batched_sys.write(bv[0], a);
  batched_sys.write(bv[1], b);
  batched_sys.write(bv[2], c);
  batched_sys.submit_bulk(dram::bulk_op::and_op, bv[0], &bv[1], bv[3]);
  batched_sys.submit_bulk(dram::bulk_op::xor_op, bv[3], &bv[2], bv[4]);
  batched_sys.submit_bulk(dram::bulk_op::nor_op, bv[4], &bv[0], bv[3]);
  batched_sys.wait_all();

  EXPECT_EQ(batched_sys.read(bv[3]), sync_sys.read(sv[3]));
  EXPECT_EQ(batched_sys.read(bv[4]), sync_sys.read(sv[4]));
  // And against the functional model directly.
  EXPECT_EQ(batched_sys.read(bv[4]), (a & b) ^ c);
}

TEST(SchedulerTest, DependentTasksCompleteInOrder) {
  core::pim_system sys(small_config());
  const bits size = 2'000;
  auto vecs = sys.allocate(size, 4);
  rng gen(3);
  sys.write(vecs[0], bitvector::random(size, gen));
  sys.write(vecs[1], bitvector::random(size, gen));

  // t1 writes d; t2 reads d (RAW); t3 overwrites d's source (WAR).
  task_future t1 =
      sys.submit_bulk(dram::bulk_op::and_op, vecs[0], &vecs[1], vecs[2]);
  task_future t2 =
      sys.submit_bulk(dram::bulk_op::or_op, vecs[2], &vecs[1], vecs[3]);
  task_future t3 =
      sys.submit_bulk(dram::bulk_op::not_op, vecs[1], nullptr, vecs[2]);
  sys.wait_all();

  EXPECT_LE(t1.report().complete_ps, t2.report().start_ps);
  EXPECT_LE(t2.report().complete_ps, t3.report().start_ps);
  EXPECT_GE(sys.runtime().stats().sched.hazard_deferred, 2u);
}

TEST(SchedulerTest, RowBusyHoldsExactlyWhileAnActiveTaskTouchesTheRow) {
  // row_busy(key) must be true exactly while a submitted, not yet
  // completed task reads or writes the row — checked after every tick
  // against each task's own rows and future.
  core::pim_system sys(small_config());
  scheduler& sched = sys.runtime().sched();
  const bits size = 2'000;
  auto v = sys.allocate(size, 4);
  const auto untouched = sys.allocate(size, 1);
  rng gen(13);
  sys.write(v[0], bitvector::random(size, gen));
  sys.write(v[1], bitvector::random(size, gen));

  struct tracked {
    task_future future;
    std::vector<std::uint64_t> rows;
  };
  std::vector<tracked> tasks;
  auto submit = [&](dram::bulk_op op, const dram::bulk_vector& a,
                    const dram::bulk_vector* b, const dram::bulk_vector& d) {
    pim_task t = make_bulk_task(op, a, b, d);
    std::vector<std::uint64_t> rows;
    sched.collect_rows(t, rows, rows);
    tasks.push_back({sys.submit(std::move(t)), std::move(rows)});
  };
  auto keys_of = [&](const dram::bulk_vector& vec) {
    std::vector<std::uint64_t> keys;
    for (const dram::address& a : vec.rows) {
      keys.push_back(sys.memory().row_key(a));
    }
    return keys;
  };
  // t0 reads v0, v1 and writes v2.
  submit(dram::bulk_op::and_op, v[0], &v[1], v[2]);
  // t1 reads v2 behind t0 (RAW): hazard-deferred.
  submit(dram::bulk_op::or_op, v[2], &v[1], v[3]);
  // t2 writes v1, superseding its readers t0 and t1 (WAR): the hazard
  // table forgets them as v1's readers while they are still active.
  submit(dram::bulk_op::not_op, v[0], nullptr, v[1]);
  EXPECT_EQ(sched.stats().hazard_deferred, 2u);
  // t1 has not been released, but the rows only it touches are busy.
  for (std::uint64_t key : keys_of(v[3])) EXPECT_TRUE(sched.row_busy(key));

  std::vector<std::uint64_t> keys;
  for (const dram::bulk_vector& vec :
       {v[0], v[1], v[2], v[3], untouched[0]}) {
    for (std::uint64_t key : keys_of(vec)) keys.push_back(key);
  }
  auto check = [&] {
    for (std::uint64_t key : keys) {
      const bool truth =
          std::any_of(tasks.begin(), tasks.end(), [&](const tracked& t) {
            return !t.future.ready() &&
                   std::count(t.rows.begin(), t.rows.end(), key) != 0;
          });
      EXPECT_EQ(sched.row_busy(key), truth) << "row key " << key;
    }
  };
  check();
  bool saw_superseded_reader_active = false;
  for (int tick = 0; !sched.idle() && tick < 1'000'000; ++tick) {
    sched.tick();
    check();
    // t0 done, t1 (a superseded reader of v1) still running.
    if (tasks[0].future.ready() && !tasks[1].future.ready()) {
      saw_superseded_reader_active = true;
      for (std::uint64_t key : keys_of(v[1])) {
        EXPECT_TRUE(sched.row_busy(key));
      }
    }
  }
  ASSERT_TRUE(sched.idle());
  EXPECT_TRUE(saw_superseded_reader_active);
  for (std::uint64_t key : keys) EXPECT_FALSE(sched.row_busy(key));
}

TEST(SchedulerTest, HazardChainProducesCorrectResults) {
  core::pim_system sys(small_config());
  const bits size = 3'000;
  auto vecs = sys.allocate(size, 4);
  rng gen(9);
  const bitvector a = bitvector::random(size, gen);
  const bitvector b = bitvector::random(size, gen);
  sys.write(vecs[0], a);
  sys.write(vecs[1], b);

  sys.submit_bulk(dram::bulk_op::and_op, vecs[0], &vecs[1], vecs[2]);
  sys.submit_bulk(dram::bulk_op::or_op, vecs[2], &vecs[0], vecs[3]);
  // WAR: overwrite vecs[2] after the read above.
  sys.submit_bulk(dram::bulk_op::xor_op, vecs[0], &vecs[1], vecs[2]);
  // In-place: vecs[3] |= vecs[2].
  sys.submit_bulk(dram::bulk_op::or_op, vecs[3], &vecs[2], vecs[3]);
  sys.wait_all();

  EXPECT_EQ(sys.read(vecs[2]), a ^ b);
  EXPECT_EQ(sys.read(vecs[3]), ((a & b) | a) | (a ^ b));
}

TEST(SchedulerTest, IndependentOpsOverlapAcrossBanks) {
  // Eight independent ops on different banks: batched wall-clock must
  // beat drain-per-op, and the bank-parallelism stats must see it.
  const int ops = 8;
  core::pim_system_config cfg = small_config();
  cfg.org.banks = 8;

  core::pim_system sync_sys(cfg);
  const bits size = cfg.org.row_bits();
  picoseconds sync_ps = 0;
  for (int i = 0; i < ops; ++i) {
    auto g = sync_sys.allocate(size, 3);
    sync_ps += sync_sys.execute(dram::bulk_op::xor_op, g[0], &g[1], g[2])
                   .latency;
  }

  core::pim_system batched_sys(cfg);
  std::vector<std::vector<dram::bulk_vector>> groups;
  for (int i = 0; i < ops; ++i) groups.push_back(batched_sys.allocate(size, 3));
  const picoseconds start = batched_sys.memory().now_ps();
  for (const auto& g : groups) {
    batched_sys.submit_bulk(dram::bulk_op::xor_op, g[0], &g[1], g[2]);
  }
  batched_sys.wait_all();
  const picoseconds batched_ps = batched_sys.memory().now_ps() - start;

  EXPECT_LT(batched_ps, sync_ps / 2);  // at least 2x from overlap
  EXPECT_GT(batched_sys.runtime().stats().sched.peak_busy_banks, 1);
}

TEST(SchedulerTest, RowCloneAndMemsetTasks) {
  core::pim_system sys(small_config());
  const bits size = sys.org().row_bits();
  auto vecs = sys.allocate(size, 2);
  rng gen(5);
  const bitvector data = bitvector::random(size, gen);
  sys.write(vecs[0], data);

  pim_task copy;
  copy.payload = row_copy_args{vecs[0].rows[0], vecs[1].rows[0], true};
  task_future f1 = sys.submit(std::move(copy));

  pim_task set;
  set.payload = row_memset_args{vecs[0].rows[0], true};
  task_future f2 = sys.submit(std::move(set));  // WAR on the copy source
  sys.wait_all();

  EXPECT_EQ(sys.read(vecs[1]), data);
  EXPECT_TRUE(sys.read(vecs[0]).all());
  EXPECT_EQ(f1.report().where, backend_kind::rowclone);
  EXPECT_LE(f1.report().complete_ps, f2.report().start_ps);
}

TEST(SchedulerTest, WaitOnEmptyFutureThrows) {
  core::pim_system sys(small_config());
  task_future empty;
  EXPECT_THROW(sys.wait(empty), std::invalid_argument);
}

TEST(SchedulerTest, WaitOnAForeignFutureExpiresTheWatchdog) {
  // A future from another system never completes here. The wait runs
  // the whole watchdog on the simulated clock (idle but for refresh)
  // and throws: it neither returns early nor spins in place.
  core::pim_system sys(small_config());
  core::pim_system other(small_config());
  auto vecs = other.allocate(1'000, 3);
  const task_future foreign =
      other.submit_bulk(dram::bulk_op::and_op, vecs[0], &vecs[1], vecs[2]);
  try {
    sys.wait(foreign);
    FAIL() << "wait returned on a future it cannot complete";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("watchdog"), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(foreign.ready());
  EXPECT_EQ(sys.memory().now_cycles(), 200'000'000);
  EXPECT_EQ(sys.runtime().stats().sched.ticks, 200'000'000u);
  EXPECT_GT(sys.memory().counters().get("dram.ref"), 30'000u);
}

TEST(SchedulerTest, InvalidTaskRejectedWithoutCorruptingState) {
  core::pim_system sys(small_config());
  const bits size = 1'000;
  auto vecs = sys.allocate(size, 3);

  // A row_copy task forced onto the Ambit backend is rejected at
  // submit time...
  pim_task bad;
  bad.payload = row_copy_args{vecs[0].rows[0], vecs[1].rows[0], true};
  bad.forced_backend = backend_kind::ambit;
  EXPECT_THROW(sys.submit(std::move(bad)), std::invalid_argument);
  // ...as is an FPM copy whose rows live in different banks...
  dram::address other = vecs[0].rows[0];
  other.bank = (other.bank + 1) % sys.org().banks;
  pim_task cross;
  cross.payload = row_copy_args{vecs[0].rows[0], other, true};
  EXPECT_THROW(sys.submit(std::move(cross)), std::invalid_argument);

  // ...as is an empty bulk vector, whose zero command sequences would
  // otherwise never resolve the future...
  dram::bulk_vector empty;
  pim_task hollow;
  hollow.payload = bulk_bool_args{dram::bulk_op::not_op, empty, {}, empty};
  EXPECT_THROW(sys.submit(std::move(hollow)), std::invalid_argument);

  // ...and none of them leaves state behind: the rejected tasks' rows are
  // not registered as hazards, so later tasks run normally.
  EXPECT_EQ(sys.runtime().stats().sched.submitted, 0u);
  rng gen(21);
  const bitvector a = bitvector::random(size, gen);
  sys.write(vecs[0], a);
  task_future ok =
      sys.submit_bulk(dram::bulk_op::not_op, vecs[0], nullptr, vecs[2]);
  sys.wait(ok);
  EXPECT_EQ(sys.read(vecs[2]), ~a);
  EXPECT_TRUE(sys.runtime().sched().idle());
}

// ---------------------------------------------------------------------------
// Executor pools
// ---------------------------------------------------------------------------

// Submits `count` host kernels on `stream`; they all queue on the
// single-slot host pool, so pop order is directly observable through
// completion times.
std::vector<task_future> submit_host_kernels(core::pim_system& sys,
                                             int stream, int count) {
  std::vector<task_future> futures;
  for (int i = 0; i < count; ++i) {
    core::kernel_profile p;
    p.name = "stress";
    p.instructions = 1'000'000;
    p.memory_traffic = 1 * mib;
    p.host_cache_hit = 0.5;
    pim_task t;
    t.payload = host_kernel_args{p};
    t.stream = stream;
    t.forced_backend = backend_kind::host;
    futures.push_back(sys.submit(std::move(t)));
  }
  return futures;
}

TEST(ExecutorPoolTest, QueuedTasksStartInFifoOrderAcrossStreams) {
  core::pim_system sys(small_config());
  // Stream 0 queues its whole batch first; the pool pops strictly
  // FIFO whatever the stream, so all of stream 0 completes before any
  // of stream 1. (Fair share between tenants is the service shard's
  // admission stride, upstream of the runtime.)
  auto first = submit_host_kernels(sys, 0, 6);
  auto second = submit_host_kernels(sys, 1, 6);
  sys.wait_all();
  EXPECT_LE(first.back().report().complete_ps,
            second.front().report().complete_ps);
}

// ---------------------------------------------------------------------------
// Dispatcher routing
// ---------------------------------------------------------------------------

TEST(DispatcherTest, MemoryBoundKernelOffloads) {
  dispatcher d(small_config().org);
  pim_task t;
  core::kernel_profile p;
  p.name = "streaming_scan";
  p.instructions = 1'000'000;
  p.memory_traffic = 64 * mib;  // memory-bound: host BW is the wall
  p.host_cache_hit = 0.0;
  t.payload = host_kernel_args{p};

  const dispatcher::routing_result r = d.route(t);
  EXPECT_TRUE(r.decision.offload);
  EXPECT_EQ(r.where, backend_kind::ndp_logic);
}

TEST(DispatcherTest, ComputeBoundKernelStaysOnHost) {
  dispatcher d(small_config().org);
  pim_task t;
  core::kernel_profile p;
  p.name = "crypto";
  p.instructions = 500'000'000;  // compute-bound, cache-resident
  p.memory_traffic = 64 * kib;
  p.host_cache_hit = 0.9;
  t.payload = host_kernel_args{p};

  const dispatcher::routing_result r = d.route(t);
  EXPECT_FALSE(r.decision.offload);
  EXPECT_EQ(r.where, backend_kind::host);
}

TEST(DispatcherTest, BulkOpsAreMemoryBoundAndRouteToAmbit) {
  dispatcher d(small_config().org);
  core::pim_system sys(small_config());
  auto vecs = sys.allocate(100'000, 3);
  pim_task t;
  bulk_bool_args args;
  args.op = dram::bulk_op::xor_op;
  args.a = vecs[0];
  args.b = vecs[1];
  args.d = vecs[2];
  t.payload = std::move(args);

  const dispatcher::routing_result r = d.route(t);
  EXPECT_TRUE(r.decision.offload);
  EXPECT_EQ(r.where, backend_kind::ambit);
  // The derived profile models the host loop: 3 bytes of traffic per
  // output byte for a binary op, streaming (no cache reuse).
  EXPECT_EQ(r.profile.memory_traffic, 3u * (100'000 / 8));
  EXPECT_EQ(r.profile.host_cache_hit, 0.0);
}

TEST(DispatcherTest, ForcedBackendOverridesDecision) {
  pim_task t;
  core::kernel_profile p;
  p.instructions = 500'000'000;
  p.memory_traffic = 64 * kib;
  p.host_cache_hit = 0.9;  // the offload model keeps it on the host
  t.payload = host_kernel_args{p};
  const dispatcher d(small_config().org);
  EXPECT_EQ(d.route(t).where, backend_kind::host);

  // A per-task forced backend beats the offload decision.
  t.forced_backend = backend_kind::ndp_logic;
  EXPECT_EQ(d.route(t).where, backend_kind::ndp_logic);
}

TEST(DispatcherTest, UtilizationAccountsCompletedTasks) {
  core::pim_system sys(small_config());
  auto vecs = sys.allocate(1'000, 3);
  sys.submit_bulk(dram::bulk_op::and_op, vecs[0], &vecs[1], vecs[2]);
  core::kernel_profile p;
  p.name = "scan";
  p.instructions = 1'000;
  p.memory_traffic = 1 * mib;
  pim_task kernel;
  kernel.payload = host_kernel_args{p};
  sys.submit(std::move(kernel));
  sys.wait_all();

  const auto util = sys.runtime().stats().backends;
  ASSERT_TRUE(util.count(backend_kind::ambit));
  EXPECT_EQ(util.at(backend_kind::ambit).tasks, 1u);
  EXPECT_EQ(util.at(backend_kind::ambit).output_bytes, 1'000u / 8);
  ASSERT_TRUE(util.count(backend_kind::ndp_logic));
  EXPECT_EQ(util.at(backend_kind::ndp_logic).tasks, 1u);
}

TEST(DispatcherTest, HostFallbackComputesCorrectResult) {
  core::pim_system sys(small_config());
  const bits size = 2'000;
  auto vecs = sys.allocate(size, 3);
  rng gen(11);
  const bitvector a = bitvector::random(size, gen);
  const bitvector b = bitvector::random(size, gen);
  sys.write(vecs[0], a);
  sys.write(vecs[1], b);

  pim_task t;
  bulk_bool_args args;
  args.op = dram::bulk_op::nand_op;
  args.a = vecs[0];
  args.b = vecs[1];
  args.d = vecs[2];
  t.payload = std::move(args);
  t.forced_backend = backend_kind::host;  // bypass Ambit entirely
  task_future f = sys.submit(std::move(t));
  sys.wait(f);

  EXPECT_EQ(sys.read(vecs[2]), ~(a & b));
  EXPECT_EQ(f.report().where, backend_kind::host);
}

// ---------------------------------------------------------------------------
// Multi-tenant workload driver
// ---------------------------------------------------------------------------

std::vector<stream_config> test_streams(int tasks) {
  std::vector<stream_config> streams(3);
  streams[0].kind = stream_kind::db_bitmap_scan;
  streams[1].kind = stream_kind::graph_frontier;
  streams[2].kind = stream_kind::consumer_bulk;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    streams[i].tasks = tasks;
    streams[i].seed = 50 + i;
  }
  return streams;
}

TEST(WorkloadDriverTest, BatchedMatchesSynchronousDigest) {
  core::pim_system sync_sys(small_config());
  workload_driver sync_driver(sync_sys);
  const drive_result sync_r = sync_driver.run(test_streams(8), true);

  core::pim_system batched_sys(small_config());
  workload_driver batched_driver(batched_sys);
  const drive_result batched_r = batched_driver.run(test_streams(8), false);

  EXPECT_EQ(sync_r.digest, batched_r.digest);
  EXPECT_EQ(sync_r.output_bytes, batched_r.output_bytes);
  EXPECT_LE(batched_r.makespan_ps, sync_r.makespan_ps);
}

TEST(WorkloadDriverTest, AllTasksCompletePerStream) {
  core::pim_system sys(small_config());
  workload_driver driver(sys);
  const drive_result r = driver.run(test_streams(12), false);

  ASSERT_EQ(r.streams.size(), 3u);
  for (const stream_result& s : r.streams) {
    EXPECT_EQ(s.tasks, 12);
    EXPECT_GT(s.last_complete_ps, s.first_submit_ps);
    EXPECT_GT(s.output_bytes, 0u);
  }
  EXPECT_EQ(r.stats.sched.submitted, 36u);
  EXPECT_EQ(r.stats.sched.completed, 36u);
  EXPECT_TRUE(sys.runtime().sched().idle());
}

TEST(WorkloadDriverTest, StressManyConcurrentStreams) {
  core::pim_system_config cfg = small_config();
  cfg.org.banks = 8;
  cfg.org.rows = 512;
  core::pim_system sys(cfg);
  workload_driver driver(sys);

  std::vector<stream_config> streams;
  for (int i = 0; i < 12; ++i) {
    stream_config s;
    s.kind = static_cast<stream_kind>(i % 3);
    s.tasks = 20;
    s.seed = static_cast<std::uint64_t>(i + 1);
    streams.push_back(s);
  }
  const drive_result r = driver.run(streams, false);

  EXPECT_EQ(r.stats.sched.submitted, 240u);
  EXPECT_EQ(r.stats.sched.completed, 240u);
  EXPECT_GT(r.stats.sched.peak_busy_banks, 1);
  EXPECT_TRUE(sys.runtime().sched().idle());
  // Re-running on the same system must also drain cleanly.
  const drive_result r2 = driver.run(test_streams(4), false);
  EXPECT_EQ(r2.stats.sched.completed, 252u);  // cumulative counters
}

// ---------------------------------------------------------------------------
// Event-driven clock: the same run as ticking every cycle
// ---------------------------------------------------------------------------

// How a run moves simulated time: bare tick() on every cycle (the
// reference), or the event loops behind wait, wait_all, advance and
// memory_system::drain.
enum class clock_mode { every_cycle, events };

struct clock_run {
  std::vector<task_report> reports;  // submission order
  scheduler_stats stats;
  std::map<std::string, std::uint64_t> counters;
  std::vector<std::pair<picoseconds, cycles>> requests;  // done, seen at
  std::vector<cycles> drains;
  std::vector<bitvector> rows;
  cycles end_cycle = 0;
};

// One mixed stream on two channels: Ambit ops of both arities, RowClone
// FPM/PSM/memset, host and NDP executor tasks whose service times end
// between DRAM cycles, host requests hitting an open row, a task
// submitted from a completion callback, a refresh that must precharge
// a host-opened row first, and work spread over more than four refresh
// intervals.
clock_run run_mixed_stream(clock_mode mode) {
  core::pim_system_config cfg = small_config();
  cfg.org.channels = 2;
  cfg.org.ranks = 2;
  cfg.runtime.sched.ndp_slots = 2;
  core::pim_system sys(cfg);
  scheduler& sched = sys.runtime().sched();
  dram::memory_system& mem = sys.memory();
  const bool events = mode == clock_mode::events;
  // By value: completion callbacks append to `futures` mid-wait.
  auto wait = [&](task_future f) {
    if (events) return sched.wait(f);
    while (!f.ready()) sched.tick();
  };
  auto wait_all = [&] {
    if (events) return sched.wait_all();
    while (!sched.idle()) sched.tick();
  };
  auto advance = [&](cycles n) {
    if (events) return sched.advance(n);
    for (cycles i = 0; i < n && !sched.idle(); ++i) sched.tick();
  };
  auto drain = [&] {
    if (events) return mem.drain();
    cycles n = 0;
    for (; !mem.idle(); ++n) mem.tick();
    return n;
  };

  clock_run run;
  std::vector<task_future> futures;
  // `service` is the executor time of host/NDP tasks (tCK is 1250 ps).
  auto submit = [&](task_payload payload, backend_kind where,
                    picoseconds service = 0,
                    std::function<void(const task_report&)> on_complete = {}) {
    pim_task task;
    task.payload = std::move(payload);
    task.on_complete = std::move(on_complete);
    core::offload_decision d;
    d.host_time = service;
    d.pim_time = service;
    futures.push_back(sched.submit(std::move(task), where, d));
  };
  auto request = [&](dram::address a, int column, dram::request_kind kind) {
    a.column = column;
    dram::request req;
    req.kind = kind;
    req.addr = mem.mapper().linearize(a);
    req.on_complete = [&run, &mem](picoseconds t) {
      run.requests.emplace_back(t, mem.now_cycles());
    };
    EXPECT_TRUE(mem.enqueue(std::move(req)));
  };

  // Six rows per vector: banks 0-3 of channel 0, then banks 0-1 of
  // channel 1. `w` lands on channel 1, bank 2.
  const bits row_bits = sys.org().row_bits();
  const bits size = 5 * row_bits + 77;
  std::vector<dram::bulk_vector> v = sys.allocate(size, 4);
  std::vector<dram::bulk_vector> w = sys.allocate(row_bits, 2);
  // Second rows on channel 0, bank 0 of rank 1.
  std::vector<dram::bulk_vector> u = sys.allocate(2 * row_bits, 2);
  rng gen(17);
  sys.write(v[0], bitvector::random(size, gen));
  sys.write(v[1], bitvector::random(size, gen));
  sys.write(w[0], bitvector::random(row_bits, gen));
  auto bulk = [&](dram::bulk_op op, int a, int b, int d) {
    bulk_bool_args args;
    args.op = op;
    args.a = v[static_cast<std::size_t>(a)];
    if (b >= 0) args.b = v[static_cast<std::size_t>(b)];
    args.d = v[static_cast<std::size_t>(d)];
    return task_payload{std::move(args)};
  };
  const dram::address open_row = v[0].rows[0];  // channel 0, bank 0
  const host_kernel_args kernel{core::kernel_profile{"k", 1'000, 4'096, 0.0}};

  // Host requests leave open_row's bank open for the AND behind them.
  request(open_row, 0, dram::request_kind::read);
  request(open_row, 1, dram::request_kind::read);
  request(open_row, 2, dram::request_kind::write);
  submit(bulk(dram::bulk_op::and_op, 0, 1, 2), backend_kind::ambit);
  submit(bulk(dram::bulk_op::not_op, 0, -1, 3), backend_kind::ambit);
  submit(row_copy_args{v[2].rows[0], v[3].rows[0], true},
         backend_kind::rowclone);
  submit(kernel, backend_kind::host, 10'001);
  submit(kernel, backend_kind::ndp_logic, 3'333);
  submit(kernel, backend_kind::ndp_logic, 7'777);
  submit(kernel, backend_kind::ndp_logic, 2'501);  // queues for a slot
  submit(bulk(dram::bulk_op::xor_op, 0, 1, 2), backend_kind::host, 4'321);
  wait(futures[1]);
  advance(300);

  for (int round = 0; round < 6; ++round) {
    // A long NDP run keeps the scheduler busy across refresh deadlines.
    submit(kernel, backend_kind::ndp_logic, 6'000'000 + 1'111 * round);
    request(open_row, 3 + round % 4, round % 2 == 0
                                         ? dram::request_kind::read
                                         : dram::request_kind::write);
    submit(row_copy_args{v[0].rows[4], w[1].rows[0], false},
           backend_kind::rowclone);
    submit(row_memset_args{w[0].rows[0], round % 2 == 0},
           backend_kind::rowclone);
    submit(bulk(dram::bulk_op::or_op, 2, 1, 3), backend_kind::ambit, 0,
           [&, round](const task_report&) {
             // Submitted at the completion instant, inside the tick.
             submit(bulk(round % 2 == 0 ? dram::bulk_op::nor_op
                                        : dram::bulk_op::not_op,
                         3, round % 2 == 0 ? 0 : -1, 2),
                    backend_kind::ambit);
           });
    advance(4'000 + 37 * round);
    if (round % 3 == 2) wait(futures.back());
  }
  wait_all();

  // A refresh deadline while rank 1 has a row open and a memset queued
  // behind it: the waiting rank's PRE and REF are the only events
  // before the NDP deadline.
  const cycles trefi = sys.memory().timing().trefi;
  submit(kernel, backend_kind::ndp_logic, 3 * trefi * 1'250 + 7);
  const cycles deadline = (mem.now_cycles() / trefi + 2) * trefi;
  advance(deadline - 10 - mem.now_cycles());
  request(u[1].rows[1], 0, dram::request_kind::read);
  advance(2);  // the request's ACT goes first
  submit(row_memset_args{u[0].rows[1], true}, backend_kind::rowclone);
  wait_all();

  // Host requests drained by the memory system alone: row hits, a row
  // conflict, and both channels.
  request(open_row, 5, dram::request_kind::read);
  request(open_row, 6, dram::request_kind::read);
  dram::address conflict = open_row;
  conflict.row += 1;
  request(conflict, 0, dram::request_kind::write);
  request(w[0].rows[0], 0, dram::request_kind::read);
  run.drains.push_back(drain());
  run.drains.push_back(drain());  // idle: zero

  for (const task_future& f : futures) run.reports.push_back(f.report());
  run.stats = sched.stats();
  run.counters = mem.counters().all();
  for (const auto* group : {&v, &w, &u}) {
    for (const dram::bulk_vector& vec : *group) {
      for (const dram::address& a : vec.rows) {
        run.rows.push_back(mem.row_or_zero(a));
      }
    }
  }
  run.end_cycle = mem.now_cycles();
  return run;
}

void expect_same_report(const task_report& want, const task_report& got) {
  std::vector<std::int64_t> a;
  std::vector<std::int64_t> b;
  for_each_wire_field(want, [&](const auto& f) {
    a.push_back(static_cast<std::int64_t>(f));
  });
  for_each_wire_field(got, [&](const auto& f) {
    b.push_back(static_cast<std::int64_t>(f));
  });
  EXPECT_EQ(a, b) << "task " << want.id;
}

void expect_same_stats(const scheduler_stats& want,
                       const scheduler_stats& got) {
  EXPECT_EQ(want.submitted, got.submitted);
  EXPECT_EQ(want.completed, got.completed);
  EXPECT_EQ(want.hazard_deferred, got.hazard_deferred);
  EXPECT_EQ(want.ticks, got.ticks);
  EXPECT_EQ(want.busy_bank_ticks, got.busy_bank_ticks);
  EXPECT_EQ(want.peak_busy_banks, got.peak_busy_banks);
  EXPECT_EQ(want.peak_in_flight, got.peak_in_flight);
  EXPECT_EQ(want.energy_fj, got.energy_fj);
  EXPECT_EQ(want.insitu_bytes, got.insitu_bytes);
  EXPECT_EQ(want.offchip_bytes, got.offchip_bytes);
  EXPECT_EQ(want.wire_bytes, got.wire_bytes);
  EXPECT_EQ(want.wait_admission_ps, got.wait_admission_ps);
  EXPECT_EQ(want.wait_hazard_ps, got.wait_hazard_ps);
  EXPECT_EQ(want.wait_bank_ps, got.wait_bank_ps);
  EXPECT_EQ(want.exec_ps, got.exec_ps);
  EXPECT_EQ(want.wire_ps, got.wire_ps);
  EXPECT_EQ(want.task_lifetime_ps, got.task_lifetime_ps);
}

TEST(EventClockTest, MatchesTickingEveryCycle) {
  const clock_run want = run_mixed_stream(clock_mode::every_cycle);
  const clock_run got = run_mixed_stream(clock_mode::events);

  ASSERT_EQ(want.reports.size(), got.reports.size());
  for (std::size_t i = 0; i < want.reports.size(); ++i) {
    expect_same_report(want.reports[i], got.reports[i]);
  }
  expect_same_stats(want.stats, got.stats);
  EXPECT_EQ(want.counters, got.counters);
  EXPECT_EQ(want.requests, got.requests);
  EXPECT_EQ(want.drains, got.drains);
  EXPECT_TRUE(want.rows == got.rows);
  EXPECT_EQ(want.end_cycle, got.end_cycle);

  // The stream covered what it claims to.
  EXPECT_GT(want.end_cycle, 4 * dram::ddr3_1600().trefi);
  EXPECT_GE(want.counters.at("dram.ref"), 8u);  // two ranks, four rounds
  EXPECT_GT(want.counters.at("ctrl.row_hits"), 0u);
  EXPECT_GT(want.counters.at("ctrl.row_conflicts"), 0u);
  EXPECT_GT(want.counters.at("dram.tra"), 0u);
  EXPECT_GT(want.counters.at("dram.bulk_rd"), 0u);  // PSM
  EXPECT_EQ(want.reports.size(), 8u + 6u * 5u + 2u);
  EXPECT_GT(want.drains[0], 0);
  EXPECT_EQ(want.drains[1], 0);
  EXPECT_GT(want.stats.ticks, 0u);
}

}  // namespace
}  // namespace pim::runtime
