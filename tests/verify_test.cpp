// Tests for the static verification layer (src/verify/): the
// diagnostic catalog's contract (every ID fires on seeded-bad input,
// stays silent on every good artifact the repo's own producers emit),
// the checkers' individual invariants, and the release-parity property
// that verification never alters what a producer returns.
#include <stdexcept>

#include <gtest/gtest.h>

#include "db/bitweaving.h"
#include "db/lowering.h"
#include "dram/ambit.h"
#include "query/plan.h"
#include "verify/selftest.h"
#include "verify/verify.h"

namespace pim::verify {
namespace {

// ---------------------------------------------------------------------------
// Catalog contract
// ---------------------------------------------------------------------------

TEST(catalog, ids_are_stable_and_formatted) {
  EXPECT_EQ(id_of(diag::use_before_def), "V001");
  EXPECT_EQ(id_of(diag::scratch_budget), "V008");
  EXPECT_EQ(id_of(diag::input_out_of_schema), "V101");
  EXPECT_EQ(id_of(diag::colocation_violation), "V110");
  EXPECT_EQ(id_of(diag::unknown_dependency), "V201");
  EXPECT_EQ(id_of(diag::operand_size_mismatch), "V206");
  EXPECT_EQ(id_of(diag::opcode_range), "V301");
}

TEST(catalog, every_entry_has_info) {
  for (const diag_info& info : catalog()) {
    EXPECT_STRNE(info.title, "");
    EXPECT_STRNE(info.summary, "");
    EXPECT_EQ(info_of(info.d).title, info.title);
  }
  EXPECT_THROW(info_of(static_cast<diag>(999)), std::invalid_argument);
}

/// The core mutation-test requirement: each diagnostic ID fires on its
/// seeded-bad artifact, and every known-good baseline is clean.
TEST(catalog, every_diagnostic_fires_on_seeded_bad_input) {
  const auto results = run_selftest();
  EXPECT_EQ(results.size(), catalog().size());
  for (const selftest_result& r : results) {
    EXPECT_TRUE(r.fired) << id_of(r.d) << " " << info_of(r.d).title
                         << " did not fire; report was:\n"
                         << r.detail;
  }
}

TEST(catalog, baselines_are_clean) {
  for (const auto& [name, r] : baseline_reports()) {
    EXPECT_TRUE(r.ok()) << name << " not clean:\n" << r.to_string();
  }
}

TEST(report, to_string_and_assert_ok) {
  report r;
  r.artifact = "unit";
  EXPECT_EQ(r.to_string(), "ok");
  EXPECT_NO_THROW(assert_ok(r));
  r.add(diag::dead_instruction, 3, "t1 written but never read afterwards");
  EXPECT_TRUE(r.has(diag::dead_instruction));
  EXPECT_FALSE(r.has(diag::use_before_def));
  EXPECT_NE(r.to_string().find("V006"), std::string::npos);
  EXPECT_NE(r.to_string().find("@3"), std::string::npos);
  EXPECT_THROW(assert_ok(r), std::logic_error);
}

// ---------------------------------------------------------------------------
// Producer cleanliness: everything the repo's own lowerings emit must
// verify, across the whole predicate space.
// ---------------------------------------------------------------------------

TEST(producers, lower_predicate_sweep_is_clean) {
  using db::cmp_op;
  const cmp_op ops[] = {cmp_op::eq, cmp_op::ne, cmp_op::lt, cmp_op::le,
                        cmp_op::gt, cmp_op::ge, cmp_op::between};
  for (int width : {1, 2, 3, 4, 5, 8, 12, 16, 24, 32}) {
    const std::uint64_t max =
        (width == 32) ? 0xFFFFFFFFull : ((1ull << width) - 1);
    std::vector<std::uint32_t> values = {0, 1,
                                         static_cast<std::uint32_t>(max / 2),
                                         static_cast<std::uint32_t>(max)};
    if (max > 1) values.push_back(static_cast<std::uint32_t>(max - 1));
    for (const cmp_op op : ops) {
      for (const std::uint32_t v : values) {
        db::predicate pred;
        pred.op = op;
        pred.value = v;
        pred.value2 = static_cast<std::uint32_t>(max);
        const db::scan_program prog = db::lower_predicate(width, pred);
        const report r = check_program(prog);
        EXPECT_TRUE(r.ok())
            << "width " << width << " op " << static_cast<int>(op)
            << " value " << v << ":\n"
            << r.to_string() << "\nprogram:\n"
            << db::to_string(prog);
      }
    }
  }
}

/// The specific shapes of the pruning fix: constants with trailing
/// zeros below the lowest set bit used to leave dead eq ops behind on
/// lt/ge consumers.
TEST(producers, lt_with_trailing_zero_constant_has_no_dead_ops) {
  for (const std::uint32_t c : {32u, 128u, 100u, 96u}) {
    const db::scan_program prog =
        db::lower_predicate(8, {db::cmp_op::lt, c, 0});
    const report r = check_program(prog);
    EXPECT_FALSE(r.has(diag::dead_instruction))
        << "lt " << c << ":\n" << db::to_string(prog);
    EXPECT_TRUE(r.ok()) << r.to_string();
  }
  // lt 128 = only the top slice decides: a single NOT.
  const db::scan_program prog =
      db::lower_predicate(8, {db::cmp_op::lt, 128, 0});
  EXPECT_EQ(prog.instrs.size(), 1u);
}

TEST(producers, plan_query_specs_are_clean) {
  using namespace pim::query;
  table_schema schema;
  schema.columns = {{"x", 8}, {"y", 6}, {"z", 3}};
  auto leaf = [](const std::string& col, db::cmp_op op, std::uint32_t v,
                 std::uint32_t v2 = 0) {
    db::predicate p;
    p.op = op;
    p.value = v;
    p.value2 = v2;
    return predicate_node::leaf(col, p);
  };
  const std::vector<query_spec> specs = {
      {leaf("z", db::cmp_op::lt, 5), agg_kind::count, ""},
      {leaf("x", db::cmp_op::lt, 32), agg_kind::count, ""},
      {predicate_node::land(leaf("x", db::cmp_op::lt, 100),
                            leaf("y", db::cmp_op::ge, 16)),
       agg_kind::count, ""},
      {predicate_node::lor(leaf("x", db::cmp_op::eq, 7),
                           leaf("y", db::cmp_op::lt, 8)),
       agg_kind::count, ""},
      {predicate_node::lnot(leaf("y", db::cmp_op::between, 40, 50)),
       agg_kind::count, ""},
      {leaf("x", db::cmp_op::lt, 32), agg_kind::sum, "y"},
  };
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const query_plan plan = plan_query(schema, specs[i]);
    const report r = check_plan(schema, plan);
    EXPECT_TRUE(r.ok()) << "spec #" << i << ":\n"
                        << r.to_string() << "\n"
                        << to_string(plan);
  }
}

TEST(producers, canonical_wire_schema_is_clean) {
  const report r = check_wire_schema(canonical_wire_schema());
  EXPECT_TRUE(r.ok()) << r.to_string();
}

// ---------------------------------------------------------------------------
// Co-location against the real allocator
// ---------------------------------------------------------------------------

TEST(colocation, real_allocator_groups_are_colocated) {
  const dram::organization org;
  dram::ambit_allocator alloc(org);
  // Multi-row groups stripe across banks; the invariant must hold per
  // logical row index.
  const auto group = alloc.allocate_group(org.row_bits() * 6, 3);
  resolved_step step;
  step.operands = group;
  const report r = check_colocation(org, {step});
  EXPECT_TRUE(r.ok()) << r.to_string();
}

TEST(colocation, displaced_row_in_real_group_violates) {
  const dram::organization org;
  dram::ambit_allocator alloc(org);
  auto group = alloc.allocate_group(org.row_bits() * 6, 3);
  // Push one row of one operand into the neighboring subarray — the
  // exact corruption a broken remap or allocator would introduce.
  group[2].rows[3].row += org.rows_per_subarray();
  resolved_step step;
  step.operands = {group[0], group[1], group[2]};
  const report r = check_colocation(org, {step});
  EXPECT_TRUE(r.has(diag::colocation_violation)) << r.to_string();
}

TEST(colocation, virtual_physical_mix_violates) {
  const dram::organization org;
  dram::bulk_vector physical;
  physical.size = 8;
  physical.rows = {dram::address{0, 0, 0, 0, 0}};
  dram::bulk_vector virt;
  virt.size = 8;
  virt.rows = {dram::address{-1, 0, 0, 7, 0}};
  resolved_step step;
  step.operands = {physical, virt};
  const report r = check_colocation(org, {step});
  EXPECT_TRUE(r.has(diag::colocation_violation)) << r.to_string();
}

// ---------------------------------------------------------------------------
// Release parity: verification observes, never alters.
// ---------------------------------------------------------------------------

/// check_plan takes the plan by const reference and plan_query returns
/// the same program whether or not the debug hook ran — so a verified
/// plan must be bit-identical to a re-planned one. (Cross-build parity
/// — PIM_VERIFY=ON vs OFF — is proven by CI running the same pinned
/// planner goldens and query digests in both configurations.)
TEST(release_parity, planning_is_deterministic_and_unmodified) {
  using namespace pim::query;
  table_schema schema;
  schema.columns = {{"x", 8}};
  query_spec spec;
  spec.where = predicate_node::leaf("x", {db::cmp_op::lt, 100, 0});
  spec.agg = agg_kind::count;

  const query_plan first = plan_query(schema, spec);
  const std::string golden = to_string(first);
  const report r = check_plan(schema, first);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(to_string(first), golden);  // checking didn't touch it
  EXPECT_EQ(to_string(plan_query(schema, spec)), golden);
}

#if PIM_VERIFY_ENABLED
/// With verification compiled in, a malformed cross-plan is rejected
/// before it reaches a shard (exercised through the checker the
/// service hook calls, with the same inputs the hook builds).
TEST(release_parity, hook_rejects_bad_cross_plan) {
  cross_op op;
  op.op = dram::bulk_op::and_op;
  op.a.owner = 1;
  op.a.v.size = 8;
  op.a.v.rows = {dram::address{-1, 0, 0, 0, 0}};
  op.b = op.a;
  op.b->owner = 2;
  op.d = op.a;
  op.d.v.rows = {dram::address{-1, 0, 0, 1, 0}};
  EXPECT_THROW(assert_ok(check_cross_plan({op}, {{1, 0}})),  // owner 2 missing
               std::logic_error);
}
#endif

}  // namespace
}  // namespace pim::verify
