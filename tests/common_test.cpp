// Unit tests for the foundation library (src/common).
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <sstream>

#include "common/bitvector.h"
#include "common/config.h"
#include "common/histogram.h"
#include "common/json_writer.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/types.h"

namespace pim {
namespace {

// ---------------------------------------------------------------------------
// bitvector
// ---------------------------------------------------------------------------

TEST(BitvectorTest, DefaultIsEmpty) {
  bitvector v;
  EXPECT_EQ(v.size(), 0u);
  EXPECT_TRUE(v.empty());
  EXPECT_TRUE(v.none());
}

TEST(BitvectorTest, ConstructAllZeros) {
  bitvector v(130);
  EXPECT_EQ(v.size(), 130u);
  EXPECT_TRUE(v.none());
  EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitvectorTest, ConstructAllOnes) {
  bitvector v(130, true);
  EXPECT_TRUE(v.all());
  EXPECT_EQ(v.popcount(), 130u);
}

TEST(BitvectorTest, SetAndGet) {
  bitvector v(100);
  v.set(0, true);
  v.set(63, true);
  v.set(64, true);
  v.set(99, true);
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(63));
  EXPECT_TRUE(v.get(64));
  EXPECT_TRUE(v.get(99));
  EXPECT_FALSE(v.get(1));
  EXPECT_EQ(v.popcount(), 4u);
  v.set(63, false);
  EXPECT_FALSE(v.get(63));
}

TEST(BitvectorTest, FromToStringRoundTrip) {
  const std::string text = "1011001110001";
  bitvector v = bitvector::from_string(text);
  EXPECT_EQ(v.size(), text.size());
  EXPECT_EQ(v.to_string(), text);
}

TEST(BitvectorTest, FromStringRejectsBadChars) {
  EXPECT_THROW(bitvector::from_string("10x1"), std::invalid_argument);
}

TEST(BitvectorTest, BooleanOperators) {
  bitvector a = bitvector::from_string("1100");
  bitvector b = bitvector::from_string("1010");
  EXPECT_EQ((a & b).to_string(), "1000");
  EXPECT_EQ((a | b).to_string(), "1110");
  EXPECT_EQ((a ^ b).to_string(), "0110");
  EXPECT_EQ((~a).to_string(), "0011");
}

TEST(BitvectorTest, OperatorsRejectSizeMismatch) {
  bitvector a(10);
  bitvector b(11);
  EXPECT_THROW(a &= b, std::invalid_argument);
  EXPECT_THROW(a |= b, std::invalid_argument);
  EXPECT_THROW(a ^= b, std::invalid_argument);
}

TEST(BitvectorTest, InvertKeepsPaddingClean) {
  bitvector v(70);  // partial last word
  v.invert();
  EXPECT_TRUE(v.all());
  EXPECT_EQ(v.popcount(), 70u);
}

TEST(BitvectorTest, MajorityTruthTable) {
  bitvector a = bitvector::from_string("00001111");
  bitvector b = bitvector::from_string("00110011");
  bitvector c = bitvector::from_string("01010101");
  EXPECT_EQ(bitvector::majority(a, b, c).to_string(), "00010111");
}

TEST(BitvectorTest, MajorityWithZeroIsAnd) {
  rng gen(7);
  bitvector a = bitvector::random(4096, gen);
  bitvector b = bitvector::random(4096, gen);
  bitvector zero(4096, false);
  EXPECT_EQ(bitvector::majority(a, b, zero), a & b);
}

TEST(BitvectorTest, MajorityWithOneIsOr) {
  rng gen(8);
  bitvector a = bitvector::random(4096, gen);
  bitvector b = bitvector::random(4096, gen);
  bitvector one(4096, true);
  EXPECT_EQ(bitvector::majority(a, b, one), a | b);
}

TEST(BitvectorTest, ShiftedUp) {
  bitvector v = bitvector::from_string("10010000");
  EXPECT_EQ(v.shifted_up(2).to_string(), "00100100");
  EXPECT_EQ(v.shifted_up(0), v);
  EXPECT_TRUE(v.shifted_up(8).none());
  EXPECT_TRUE(v.shifted_up(100).none());
}

TEST(BitvectorTest, ShiftedUpAcrossWords) {
  bitvector v(130);
  v.set(0, true);
  bitvector s = v.shifted_up(128);
  EXPECT_TRUE(s.get(128));
  EXPECT_EQ(s.popcount(), 1u);
}

TEST(BitvectorTest, ResizeGrowZero) {
  bitvector v(10, true);
  v.resize(80);
  EXPECT_EQ(v.popcount(), 10u);
  EXPECT_FALSE(v.get(79));
}

TEST(BitvectorTest, ResizeGrowOnes) {
  bitvector v(10);
  v.resize(80, true);
  EXPECT_EQ(v.popcount(), 70u);
  EXPECT_TRUE(v.get(10));
  EXPECT_TRUE(v.get(79));
  EXPECT_FALSE(v.get(9));
}

TEST(BitvectorTest, RandomDensity) {
  rng gen(42);
  bitvector v = bitvector::random(100000, gen, 0.1);
  const double density =
      static_cast<double>(v.popcount()) / static_cast<double>(v.size());
  EXPECT_NEAR(density, 0.1, 0.01);
}

TEST(BitvectorTest, WordAccessMasksPadding) {
  bitvector v(65);
  v.set_word(1, ~std::uint64_t{0});
  EXPECT_EQ(v.popcount(), 1u);  // only bit 64 is inside the vector
  EXPECT_TRUE(v.get(64));
}

// copy_bits against a get/set reference, at offsets and counts around
// word boundaries. The destination starts as ones, so matching the
// reference also shows that bits outside the range keep their values.
// It ends in a partial word, which the (65, 200) case writes up to.
TEST(BitvectorTest, CopyBitsMatchesBitwiseReference) {
  rng gen(7);
  const bitvector src = bitvector::random(400, gen);
  for (const std::size_t src_pos : {0, 1, 63, 64, 65}) {
    for (const std::size_t dst_pos : {0, 1, 63, 64, 65}) {
      for (const std::size_t count : {0, 1, 63, 64, 65, 200}) {
        bitvector dst(265, true);
        bitvector expected = dst;
        for (std::size_t i = 0; i < count; ++i) {
          expected.set(dst_pos + i, src.get(src_pos + i));
        }
        dst.copy_bits(dst_pos, src, src_pos, count);
        const std::string at = std::to_string(src_pos) + "->" +
                               std::to_string(dst_pos) + " x" +
                               std::to_string(count);
        EXPECT_EQ(dst, expected) << at;
        EXPECT_EQ(dst.get_word(dst.word_count() - 1) >> (dst.size() % 64),
                  0u)
            << at;
      }
    }
  }
}

TEST(BitvectorTest, CopyBitsRejectsOutOfRangeBeforeWriting) {
  const bitvector src(100, true);
  bitvector dst(100);
  const std::size_t huge = std::numeric_limits<std::size_t>::max();
  EXPECT_THROW(dst.copy_bits(50, src, 0, 51), std::out_of_range);
  EXPECT_THROW(dst.copy_bits(0, src, 60, 41), std::out_of_range);
  EXPECT_THROW(dst.copy_bits(101, src, 0, 0), std::out_of_range);
  EXPECT_THROW(dst.copy_bits(0, src, 101, 0), std::out_of_range);
  EXPECT_THROW(dst.copy_bits(1, src, 0, huge), std::out_of_range);
  EXPECT_THROW(dst.copy_bits(0, src, huge, 2), std::out_of_range);
  EXPECT_TRUE(dst.none());
  dst.copy_bits(100, src, 100, 0);  // empty range at the very end
  EXPECT_TRUE(dst.none());
}

// De Morgan's law as a property over random vectors.
class BitvectorPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BitvectorPropertyTest, DeMorgan) {
  rng gen(GetParam());
  bitvector a = bitvector::random(777, gen);
  bitvector b = bitvector::random(777, gen);
  EXPECT_EQ(~(a & b), (~a) | (~b));
  EXPECT_EQ(~(a | b), (~a) & (~b));
}

TEST_P(BitvectorPropertyTest, XorIsAddWithoutCarry) {
  rng gen(GetParam() + 1000);
  bitvector a = bitvector::random(777, gen);
  bitvector b = bitvector::random(777, gen);
  EXPECT_EQ(a ^ b, (a | b) & ~(a & b));
}

TEST_P(BitvectorPropertyTest, MajorityIsSelfDual) {
  rng gen(GetParam() + 2000);
  bitvector a = bitvector::random(777, gen);
  bitvector b = bitvector::random(777, gen);
  bitvector c = bitvector::random(777, gen);
  EXPECT_EQ(~bitvector::majority(a, b, c),
            bitvector::majority(~a, ~b, ~c));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitvectorPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------------
// rng
// ---------------------------------------------------------------------------

TEST(RngTest, Deterministic) {
  rng a(123);
  rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  rng a(1);
  rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextBelowRespectsBound) {
  rng gen(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(gen.next_below(17), 17u);
  }
  EXPECT_EQ(gen.next_below(0), 0u);
  EXPECT_EQ(gen.next_below(1), 0u);
}

TEST(RngTest, NextInInclusive) {
  rng gen(10);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto x = gen.next_in(-3, 3);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
    saw_lo |= x == -3;
    saw_hi |= x == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  rng gen(11);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double x = gen.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, GeometricMean) {
  rng gen(12);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(gen.next_geometric(8.0));
  }
  // Floored exponential with mean m has expectation ~ m - 0.5.
  EXPECT_NEAR(sum / n, 7.5, 0.5);
}

// ---------------------------------------------------------------------------
// stats
// ---------------------------------------------------------------------------

TEST(CounterSetTest, AddAndGet) {
  counter_set c;
  EXPECT_EQ(c.get("x"), 0u);
  c.add("x");
  c.add("x", 4);
  EXPECT_EQ(c.get("x"), 5u);
}

TEST(CounterSetTest, Merge) {
  counter_set a;
  counter_set b;
  a.add("x", 2);
  b.add("x", 3);
  b.add("y", 1);
  a.merge(b);
  EXPECT_EQ(a.get("x"), 5u);
  EXPECT_EQ(a.get("y"), 1u);
}

TEST(SummaryTest, Moments) {
  summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(s.total(), 40.0);
}

TEST(SummaryTest, EmptyIsZero) {
  summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(HistogramTest, GeometricBuckets) {
  geo_histogram h;
  h.record(0);    // bucket 0
  h.record(1);    // bucket 1: [1, 2)
  h.record(2);    // bucket 2: [2, 4)
  h.record(3);    // bucket 2
  h.record(1000, 2);  // bucket 10: [512, 1024)
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(10), 2u);
}

TEST(HistogramTest, PercentileIsBucketUpperBound) {
  geo_histogram h;
  for (int i = 0; i < 100; ++i) h.record(100);  // bucket 7: [64, 128)
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 128.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 128.0);
  h.record(100000);  // bucket 17: (upper bound 131072)
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 128.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 131072.0);
}

TEST(GeometricMeanTest, Basics) {
  EXPECT_DOUBLE_EQ(geometric_mean({4.0, 9.0}), 6.0);
  EXPECT_DOUBLE_EQ(geometric_mean({5.0}), 5.0);
  EXPECT_EQ(geometric_mean({}), 0.0);
  EXPECT_THROW(geometric_mean({1.0, 0.0}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// table
// ---------------------------------------------------------------------------

TEST(TableTest, RendersAlignedColumns) {
  table t({"name", "value"});
  t.row().cell("alpha").cell(1.5);
  t.row().cell("b").cell(std::uint64_t{42});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1.50  |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 42    |"), std::string::npos);
}

TEST(TableTest, RejectsTooManyCells) {
  table t({"only"});
  t.row().cell("x");
  EXPECT_THROW(t.cell("y"), std::logic_error);
}

TEST(TableTest, RejectsCellBeforeRow) {
  table t({"a"});
  EXPECT_THROW(t.cell("x"), std::logic_error);
}

TEST(TableTest, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2048), "2 KiB");
  EXPECT_EQ(format_bytes(3 * 1024 * 1024), "3 MiB");
  EXPECT_EQ(format_bytes(1ull << 31), "2 GiB");
}

// ---------------------------------------------------------------------------
// config
// ---------------------------------------------------------------------------

TEST(ConfigTest, ParsesKeyValues) {
  config c = config::from_args({"banks=8", "ratio=1.5", "fast=true"});
  EXPECT_EQ(c.get_int("banks", 0), 8);
  EXPECT_DOUBLE_EQ(c.get_double("ratio", 0.0), 1.5);
  EXPECT_TRUE(c.get_bool("fast", false));
  EXPECT_EQ(c.get_int("missing", 7), 7);
}

TEST(ConfigTest, RejectsMalformed) {
  EXPECT_THROW(config::from_args({"novalue"}), std::invalid_argument);
  EXPECT_THROW(config::from_args({"=x"}), std::invalid_argument);
}

TEST(ConfigTest, RejectsBadTypes) {
  config c = config::from_args({"x=abc"});
  EXPECT_THROW(c.get_int("x", 0), std::invalid_argument);
  EXPECT_THROW(c.get_double("x", 0.0), std::invalid_argument);
  EXPECT_THROW(c.get_bool("x", false), std::invalid_argument);
}

TEST(ConfigTest, RangeCheckedIntegers) {
  const config c =
      config::from_args({"port=70000", "queue=-1", "shards=0", "ok=65535"});
  EXPECT_THROW(c.get_int("port", 0, 0, 65535), std::invalid_argument);
  EXPECT_THROW(c.get_int("queue", 64, 1, 1 << 20), std::invalid_argument);
  EXPECT_THROW(c.get_int("shards", 4, 1, 256), std::invalid_argument);
  EXPECT_EQ(c.get_int("ok", 0, 0, 65535), 65535);
  EXPECT_EQ(c.get_int("missing", 7, 1, 2), 7);  // the fallback is not checked
  EXPECT_EQ(c.get_int("queue", 0), -1);         // unbounded by default
}

// ---------------------------------------------------------------------------
// types
// ---------------------------------------------------------------------------

TEST(TypesTest, TimeConversions) {
  EXPECT_EQ(ns_to_ps(1.25), 1250);
  EXPECT_DOUBLE_EQ(ps_to_ns(2500), 2.5);
  EXPECT_EQ(mhz_to_period_ps(800.0), 1250);
}

TEST(TypesTest, Bandwidth) {
  // 16 bytes every 1000 ps = 16 GB/s.
  EXPECT_DOUBLE_EQ(gigabytes_per_second(16, 1000), 16.0);
  EXPECT_EQ(gigabytes_per_second(16, 0), 0.0);
}

// ---------------------------------------------------------------------------
// json_writer
// ---------------------------------------------------------------------------

namespace {

/// Emits one double through the writer and parses it back.
double json_round_trip(double value) {
  json_writer json;
  json.begin_object();
  json.key("v").value(value);
  json.end_object();
  const std::string& text = json.str();
  const std::size_t colon = text.find(':');
  EXPECT_NE(colon, std::string::npos);
  return std::strtod(text.c_str() + colon + 1, nullptr);
}

}  // namespace

TEST(JsonWriterTest, DoublesRoundTripExactly) {
  // %.6g lost precision on large cycle/byte counters, defeating
  // run-over-run comparison of BENCH_*.json; %.17g must round-trip
  // every finite double bit-exactly.
  const double values[] = {
      0.0,
      0.1,
      2.0 / 3.0,
      3.141592653589793,
      1e300,
      5e-324,                  // smallest subnormal
      123456789.123456789,
      98765432109876544.0,     // a picosecond-scale makespan counter
      9.007199254740992e15,    // 2^53: integer precision boundary
      9.007199254740994e15,
      -123456789012345.678,
  };
  for (double v : values) {
    EXPECT_EQ(json_round_trip(v), v) << "value " << v;
  }
  // Large uint64 counters passed as doubles keep their magnitude.
  const double big = static_cast<double>(
      std::uint64_t{18'446'744'073'709'551'615ull});
  EXPECT_EQ(json_round_trip(big), big);
}

TEST(JsonWriterTest, NonFiniteBecomesNull) {
  json_writer json;
  json.begin_object();
  json.key("inf").value(std::numeric_limits<double>::infinity());
  json.key("nan").value(std::numeric_limits<double>::quiet_NaN());
  json.end_object();
  EXPECT_EQ(json.str(), "{\"inf\":null,\"nan\":null}");
}

}  // namespace
}  // namespace pim
