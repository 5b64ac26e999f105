// Tests for the database layer: bit-sliced storage, predicate
// evaluation, bitmap indices, and the query cost models.
#include <gtest/gtest.h>

#include "db/bitmap_index.h"
#include "db/query.h"

namespace pim::db {
namespace {

// (rows, width): row counts around the 64-row block of the transpose,
// including a lone partial block and tails of 1 and 3 rows.
class BitsliceStorageTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(BitsliceStorageTest, RoundTripsValues) {
  const auto [rows, width] = GetParam();
  rng gen(1);
  column col = random_column(rows, width, gen);
  // Span the whole range; the maximum sits in the last, possibly
  // partial, block.
  const auto max = static_cast<std::uint32_t>((std::uint64_t{1} << width) - 1);
  col.values.front() = 0;
  col.values.back() = max;
  const bitslice_storage st(col);
  EXPECT_EQ(st.width(), width);
  EXPECT_EQ(st.rows(), rows);
  for (int b = 0; b < width; ++b) {
    bitvector expected(rows);
    std::size_t ones = 0;
    for (std::size_t r = 0; r < rows; ++r) {
      const bool bit = (col.values[r] >> b) & 1u;
      expected.set(r, bit);
      ones += bit ? 1 : 0;
    }
    EXPECT_EQ(st.slice(b), expected) << "bit " << b;
    // popcount reads whole words, so a set padding bit shows here.
    EXPECT_EQ(st.slice(b).popcount(), ones) << "bit " << b;
  }
  for (std::size_t r = 0; r < rows; ++r) {
    ASSERT_EQ(st.value_at(r), col.values[r]);
  }
  EXPECT_THROW(st.value_at(rows), std::out_of_range);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BitsliceStorageTest,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{63},
                                         std::size_t{64}, std::size_t{65},
                                         std::size_t{1000}, std::size_t{4099}),
                       ::testing::Values(1, 11, 32)));

TEST(BitsliceStorageTest, RejectsValuesWiderThanTheColumn) {
  // Keeping only the low bits would make evaluate() disagree with the
  // scalar reference: 20 would read as 4 in a 4-bit column.
  column col;
  col.bit_width = 4;
  col.values = {20, 4, 3};
  EXPECT_THROW(bitslice_storage{col}, std::invalid_argument);
  col.values = {15, 4, 3};
  EXPECT_EQ(bitslice_storage(col).value_at(0), 15u);
  col.bit_width = 0;
  EXPECT_THROW(bitslice_storage{col}, std::invalid_argument);
  col.bit_width = 33;
  EXPECT_THROW(bitslice_storage{col}, std::invalid_argument);
}

TEST(RandomColumnTest, ValuesWithinWidth) {
  rng gen(2);
  const column col = random_column(5000, 7, gen);
  for (auto v : col.values) EXPECT_LT(v, 128u);
  EXPECT_THROW(random_column(10, 0, gen), std::invalid_argument);
  EXPECT_THROW(random_column(10, 33, gen), std::invalid_argument);
}

class PredicateTest : public ::testing::TestWithParam<cmp_op> {};

TEST_P(PredicateTest, MatchesScalarReference) {
  rng gen(3);
  const column col = random_column(4096, 10, gen);
  const bitslice_storage st(col);
  for (std::uint32_t value : {0u, 1u, 511u, 512u, 1022u, 1023u}) {
    predicate pred{GetParam(), value, std::min(value + 100, 1023u)};
    const scan_result got = evaluate(st, pred);
    EXPECT_EQ(got.selection, evaluate_reference(col, pred))
        << "op=" << static_cast<int>(GetParam()) << " value=" << value;
    EXPECT_FALSE(got.ops.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(AllOps, PredicateTest,
                         ::testing::Values(cmp_op::eq, cmp_op::ne, cmp_op::lt,
                                           cmp_op::le, cmp_op::gt, cmp_op::ge,
                                           cmp_op::between));

TEST(PredicateTest, ClampsConstantsOutsideTheColumnWidth) {
  // A constant that does not fit the column width is decided by its
  // high bits alone: the lowering materializes the constant answer
  // instead of silently comparing only the low bits (which would
  // diverge from the scalar reference).
  rng gen(11);
  const column col = random_column(2048, 6, gen);
  const bitslice_storage st(col);
  for (cmp_op op : {cmp_op::eq, cmp_op::ne, cmp_op::lt, cmp_op::le,
                    cmp_op::gt, cmp_op::ge}) {
    const predicate pred{op, 600, 0};  // 600 >= 2^6
    const scan_result got = evaluate(st, pred);
    EXPECT_EQ(got.selection, evaluate_reference(col, pred))
        << "op=" << static_cast<int>(op);
    EXPECT_FALSE(got.ops.empty());
  }
  // between with an oversized upper bound degenerates to >= lo.
  const predicate range{cmp_op::between, 20, 999};
  EXPECT_EQ(evaluate(st, range).selection, evaluate_reference(col, range));
  // between with an unreachable lower bound is empty.
  const predicate none{cmp_op::between, 600, 999};
  EXPECT_EQ(evaluate(st, none).selection, evaluate_reference(col, none));
}

TEST(PredicateTest, EqUsesLinearOpsInWidth) {
  rng gen(4);
  const column col = random_column(256, 16, gen);
  const bitslice_storage st(col);
  const scan_result r = evaluate(st, predicate{cmp_op::eq, 1234, 0});
  // One AND (+ optional NOT) per slice.
  EXPECT_LE(r.ops.size(), 2u * 16u);
  EXPECT_GE(r.ops.size(), 16u);
}

TEST(BitmapIndexTest, CountsMatchReference) {
  rng gen(5);
  const column col = random_column(10000, 4, gen);  // cardinality 16
  const bitmap_index index(col, 16);
  const std::vector<std::uint32_t> wanted = {1, 5, 9};
  std::size_t expected = 0;
  for (auto v : col.values) {
    if (v == 1 || v == 5 || v == 9) ++expected;
  }
  EXPECT_EQ(index.count_in(wanted), expected);
  EXPECT_EQ(index.query_in(wanted).ops.size(), 3u);
}

TEST(BitmapIndexTest, BitmapsPartitionRows) {
  rng gen(6);
  const column col = random_column(5000, 3, gen);
  const bitmap_index index(col, 8);
  bitvector all(5000);
  std::size_t total = 0;
  for (std::uint32_t v = 0; v < 8; ++v) {
    total += index.bitmap(v).popcount();
    all |= index.bitmap(v);
  }
  EXPECT_EQ(total, 5000u);
  EXPECT_TRUE(all.all());
}

TEST(BitmapIndexTest, RejectsBadValues) {
  rng gen(7);
  const column col = random_column(100, 3, gen);
  const bitmap_index index(col, 8);
  EXPECT_THROW(index.count_in({8}), std::out_of_range);
  EXPECT_THROW(bitmap_index(col, 4), std::invalid_argument);
}

TEST(QueryCostTest, AmbitWinsAtEverySize) {
  rng gen(8);
  for (std::size_t rows : {std::size_t{1} << 20, std::size_t{1} << 23}) {
    const column col = random_column(rows, 8, gen);
    const bitslice_storage st(col);
    const auto cmp = compare_scan(st, predicate{cmp_op::lt, 100, 0});
    // The LLC-resident size wins by less since the lowering stopped
    // emitting dead eq-maintenance ops: a shorter program leaves fewer
    // ops to amortize Ambit's fixed selection read-back over, while
    // the CPU side scans fewer slices too. Cache-resident scans were
    // never the paper's headline case — DRAM-resident ones below are.
    EXPECT_GT(cmp.speedup(), rows <= (std::size_t{1} << 20) ? 1.2 : 3.0)
        << rows;
  }
}

TEST(QueryCostTest, SpeedupGrowsWithDataSetSize) {
  rng gen(9);
  double last = 0.0;
  for (std::size_t rows :
       {std::size_t{1} << 20, std::size_t{1} << 23, std::size_t{1} << 25}) {
    const column col = random_column(rows, 12, gen);
    const bitslice_storage st(col);
    const auto cmp = compare_scan(st, predicate{cmp_op::lt, 1800, 0});
    EXPECT_GE(cmp.speedup(), last);
    last = cmp.speedup();
  }
  EXPECT_GT(last, 10.0);  // the paper's "up to 12x" end of the curve
}

TEST(QueryCostTest, CpuLatencyScalesWithOps) {
  const std::vector<dram::bulk_op> one = {dram::bulk_op::and_op};
  const std::vector<dram::bulk_op> four(4, dram::bulk_op::and_op);
  const auto t1 = cpu_scan_latency(1 << 22, 12, one);
  const auto t4 = cpu_scan_latency(1 << 22, 12, four);
  // Ops cost traffic_factor units each plus one constant popcount
  // pass: 4 ops => (4*1.5+1)/(1.5+1) = 2.8x one op.
  EXPECT_GT(t4, 5 * t1 / 2);
  EXPECT_LT(t4, 3 * t1);
}

TEST(QueryCostTest, AmbitChargesPerStepCounts) {
  const std::vector<dram::bulk_op> cheap = {dram::bulk_op::and_op};   // 4
  const std::vector<dram::bulk_op> pricey = {dram::bulk_op::xor_op};  // 7
  const auto ta = ambit_scan_latency(1 << 24, cheap);
  const auto tx = ambit_scan_latency(1 << 24, pricey);
  EXPECT_GT(tx, ta);
}

TEST(EndToEndTest, CountQueryOnAmbitHardwareMatchesFunctional) {
  // Run a small scan through the *cycle-level* Ambit engine and check
  // the selection matches the functional evaluation.
  dram::organization org;
  org.channels = 1;
  org.ranks = 1;
  org.banks = 4;
  org.subarrays = 8;
  org.rows = 512;
  org.columns = 8;  // 512 B rows
  dram::memory_system mem(org, dram::ddr3_1600());
  dram::ambit_allocator alloc(org);
  dram::ambit_engine engine(mem);

  rng gen(10);
  const std::size_t rows = org.row_bits() * 2;  // two DRAM rows per slice
  const column col = random_column(rows, 3, gen);
  const bitslice_storage st(col);

  // Allocate slices + two masks + scratch in one co-located group.
  auto group = alloc.allocate_group(rows, 6);
  for (int b = 0; b < 3; ++b) engine.write_vector(group[static_cast<std::size_t>(b)], st.slice(b));
  // eq := ~s2 & ~s1 & s0  (predicate: value == 1)
  dram::bulk_vector& eq = group[3];
  dram::bulk_vector& tmp = group[4];
  engine.execute(dram::bulk_op::nor_op, group[2], &group[1], eq);   // ~s2&~s1
  mem.drain();
  engine.execute(dram::bulk_op::and_op, eq, &group[0], tmp);        // & s0
  mem.drain();
  const bitvector hw = engine.read_vector(tmp);
  EXPECT_EQ(hw, evaluate_reference(col, predicate{cmp_op::eq, 1, 0}));
}

}  // namespace
}  // namespace pim::db
