// Stress and property tests: randomized workloads against simulator
// invariants (every request completes, protocol rules hold under
// arbitrary interleavings, functional results stay exact under load).
#include <gtest/gtest.h>

#include "dram/ambit.h"
#include "dram/ambit_model.h"
#include "dram/memory_system.h"
#include "dram/rowclone.h"

namespace pim::dram {
namespace {

organization stress_org() {
  organization o;
  o.channels = 2;
  o.ranks = 2;
  o.banks = 4;
  o.subarrays = 4;
  o.rows = 256;
  o.columns = 8;
  return o;
}

/// Randomized request storms: every accepted request must complete,
/// with refresh interleaved.
class ControllerFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ControllerFuzzTest, EveryAcceptedRequestCompletes) {
  const std::uint64_t seed = GetParam();
  const organization org = stress_org();
  memory_system mem(org, ddr3_1600());
  rng gen(seed);
  std::uint64_t accepted = 0;
  std::uint64_t completed = 0;
  for (int burst = 0; burst < 50; ++burst) {
    const int count = static_cast<int>(gen.next_below(40));
    for (int i = 0; i < count; ++i) {
      request req;
      req.kind = gen.next_bool(0.3) ? request_kind::write
                                    : request_kind::read;
      req.addr = gen.next_below(org.total_bytes() / 64) * 64;
      req.on_complete = [&completed](picoseconds) { ++completed; };
      if (mem.enqueue(std::move(req))) ++accepted;
    }
    const auto idle_for = gen.next_below(300);
    for (std::uint64_t c = 0; c < idle_for; ++c) mem.tick();
  }
  mem.drain();
  EXPECT_EQ(completed, accepted);
  EXPECT_GT(accepted, 100u);
  // Refresh kept running throughout.
  EXPECT_GE(mem.counters().get("dram.ref"), 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ControllerFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

/// Mixed bulk ops and host requests: functional results stay exact
/// while regular traffic interleaves with Ambit command sequences.
TEST(MixedWorkloadStressTest, AmbitCorrectUnderHostTraffic) {
  const organization org = stress_org();
  memory_system mem(org, ddr3_1600());
  ambit_allocator alloc(org);
  ambit_engine engine(mem);
  rng gen(77);

  struct pending {
    bulk_op op;
    bitvector a;
    bitvector b;
    bulk_vector dest;
  };
  std::vector<pending> checks;
  std::uint64_t host_completed = 0;
  std::uint64_t host_accepted = 0;

  for (int round = 0; round < 20; ++round) {
    const bits size = org.row_bits() + gen.next_below(org.row_bits() * 2);
    auto group = alloc.allocate_group(size, 3);
    const bulk_op op =
        all_bulk_ops()[gen.next_below(all_bulk_ops().size())];
    pending p{op, bitvector::random(size, gen), bitvector::random(size, gen),
              group[2]};
    engine.write_vector(group[0], p.a);
    engine.write_vector(group[1], p.b);
    engine.execute(op, group[0], is_unary(op) ? nullptr : &group[1],
                   group[2]);
    checks.push_back(std::move(p));
    // Interleave host reads/writes.
    for (int i = 0; i < 20; ++i) {
      request req;
      req.kind = gen.next_bool(0.5) ? request_kind::write
                                    : request_kind::read;
      req.addr = gen.next_below(org.total_bytes() / 64) * 64;
      req.on_complete = [&host_completed](picoseconds) { ++host_completed; };
      if (mem.enqueue(std::move(req))) ++host_accepted;
    }
    for (int i = 0; i < 50; ++i) mem.tick();
  }
  mem.drain();
  EXPECT_EQ(host_completed, host_accepted);
  for (const pending& p : checks) {
    bitvector expected;
    switch (p.op) {
      case bulk_op::not_op: expected = ~p.a; break;
      case bulk_op::and_op: expected = p.a & p.b; break;
      case bulk_op::or_op: expected = p.a | p.b; break;
      case bulk_op::nand_op: expected = ~(p.a & p.b); break;
      case bulk_op::nor_op: expected = ~(p.a | p.b); break;
      case bulk_op::xor_op: expected = p.a ^ p.b; break;
      case bulk_op::xnor_op: expected = ~(p.a ^ p.b); break;
    }
    EXPECT_EQ(engine.read_vector(p.dest), expected) << to_string(p.op);
  }
}

/// RowClone chains: copy a row through a pipeline of FPM/PSM hops and
/// verify end-to-end content equality.
TEST(RowCloneStressTest, CopyChainsPreserveData) {
  const organization org = stress_org();
  memory_system mem(org, ddr3_1600());
  rowclone_engine rc(mem);
  rng gen(88);
  const bitvector original = bitvector::random(org.row_bits(), gen);
  address current;
  current.row = 0;
  mem.row(current) = original;
  for (int hop = 0; hop < 16; ++hop) {
    address next = current;
    if (hop % 2 == 0) {
      // FPM within the subarray: a different data row.
      next.row = (current.row % org.rows_per_subarray() < 10)
                     ? current.row + 3
                     : current.row - 3;
      rc.copy_fpm(current, next);
    } else {
      next.bank = (current.bank + 1) % org.banks;
      rc.copy_psm(current, next);
    }
    mem.drain();
    current = next;
  }
  EXPECT_EQ(mem.row_or_zero(current), original);
}

/// Monte-Carlo process variation: the TRA failure rate observed at the
/// sense amps scales linearly with the injected bit-flip probability
/// (the reliability question Ambit's §process-variation study answers).
TEST(AmbitVariationSweepTest, ErrorRateTracksInjectedProbability) {
  constexpr std::size_t width = 4096;
  for (const double p : {0.001, 0.01, 0.05}) {
    ambit_subarray_model model(16, width, {{12, 13}});
    model.set_variation(p, 1234);
    model.write_row(14, bitvector(width, false));
    rng gen(55);
    std::size_t wrong = 0;
    constexpr int trials = 40;
    for (int t = 0; t < trials; ++t) {
      const bitvector a = bitvector::random(width, gen);
      const bitvector b = bitvector::random(width, gen);
      model.write_row(0, a);
      model.write_row(1, b);
      model.activate(0);
      model.copy_activate(8);
      model.precharge();
      model.activate(1);
      model.copy_activate(9);
      model.precharge();
      model.activate(14);
      model.copy_activate(10);
      model.precharge();
      model.triple_activate(8, 9, 10);
      model.precharge();
      wrong += (model.read_row(8) ^ (a & b)).popcount();
    }
    const double rate =
        static_cast<double>(wrong) / static_cast<double>(trials * width);
    EXPECT_NEAR(rate, p, p * 0.5) << "injected p=" << p;
  }
}

/// Allocator soak: groups never overlap and never collide with
/// reserved rows, across many allocations of varied sizes.
TEST(AllocatorSoakTest, NoOverlapNoReservedRows) {
  const organization org = stress_org();
  ambit_allocator alloc(org);
  const subarray_layout layout(org);
  rng gen(66);
  std::set<std::tuple<int, int, int, int>> seen;  // ch, rank, bank, row
  for (int i = 0; i < 120; ++i) {
    const bits size = 1 + gen.next_below(org.row_bits() * 3);
    const int count = 1 + static_cast<int>(gen.next_below(3));
    auto group = alloc.allocate_group(size, count);
    for (const auto& v : group) {
      for (const auto& a : v.rows) {
        EXPECT_FALSE(layout.is_reserved(a.row));
        const auto key = std::make_tuple(a.channel, a.rank, a.bank, a.row);
        EXPECT_TRUE(seen.insert(key).second)
            << "row allocated twice: bank " << a.bank << " row " << a.row;
      }
    }
  }
}

/// Timing invariant: simulated time advances monotonically and bulk
/// sequence completion times are consistent with AAP-granularity math.
TEST(TimingInvariantTest, BulkOpLatencyBounds) {
  const organization org = stress_org();
  memory_system mem(org, ddr3_1600());
  ambit_allocator alloc(org);
  ambit_engine engine(mem);
  const timing_params t = ddr3_1600();
  for (bulk_op op : all_bulk_ops()) {
    auto group = alloc.allocate_group(org.row_bits(), 3);
    const picoseconds start = mem.now_ps();
    engine.execute(op, group[0], is_unary(op) ? nullptr : &group[1],
                   group[2]);
    mem.drain();
    const picoseconds elapsed = mem.now_ps() - start;
    const int steps = engine.compiler().step_count(op);
    const picoseconds aap = (t.tras + t.trp) * t.tck_ps;
    // One row on one bank: latency within ~[steps - final tRP,
    // steps + 2] AAPs — the sequence completes at the final PRE's
    // issue (the result is already restored), and the upper slack
    // covers command-bus cycles and drain granularity.
    EXPECT_GE(elapsed, steps * aap - (t.trp + 2) * t.tck_ps)
        << to_string(op);
    EXPECT_LE(elapsed, (steps + 2) * aap) << to_string(op);
  }
}

}  // namespace
}  // namespace pim::dram
