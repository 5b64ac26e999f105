// Tests for the PIM-native query engine: planner lowering goldens,
// and end-to-end digest equality of executed queries across shard
// counts, transports (in-process vs remote_client), and the
// synchronous db/bitweaving reference — including empty/all-match
// predicates, multi-column AND/OR trees, sum aggregates, and partition
// boundary rows (row counts that do not divide evenly).
#include <memory>

#include <gtest/gtest.h>

#include "net/client.h"
#include "net/server.h"
#include "query/exec.h"
#include "service/client.h"

namespace pim::query {
namespace {

// ---------------------------------------------------------------------------
// Planner goldens
// ---------------------------------------------------------------------------

TEST(plan, golden_lt_leaf) {
  const table_schema schema{{{"x", 3}}};
  query_spec spec;
  spec.where = predicate_node::leaf("x", {db::cmp_op::lt, 5, 0});
  spec.agg = agg_kind::count;
  const query_plan plan = plan_query(schema, spec);
  // No trailing eq update for the least significant slice: lt-only
  // consumers skip it (it would be a dead op on every partition).
  EXPECT_EQ(to_string(plan),
            "t0 = NOT c0[2]\n"
            "t2 = NOT c0[1]\n"
            "t1 = AND c0[2], t2\n"
            "t2 = NOT c0[0]\n"
            "t3 = AND t1, t2\n"
            "t0 = OR t0, t3\n"
            "selection = t0\n"
            "count = popcount(selection)\n");
  EXPECT_EQ(plan.input_count(), 3);
  EXPECT_EQ(plan.scratch_count, 4);
}

TEST(plan, golden_eq_with_sum_aggregate) {
  const table_schema schema{{{"x", 2}, {"y", 2}}};
  query_spec spec;
  spec.where = predicate_node::leaf("x", {db::cmp_op::eq, 2, 0});
  spec.agg = agg_kind::sum;
  spec.agg_column = "y";
  const query_plan plan = plan_query(schema, spec);
  EXPECT_EQ(to_string(plan),
            "t1 = NOT c0[0]\n"
            "t0 = AND c0[1], t1\n"
            "t2 = AND t0, c1[0]\n"
            "t3 = AND t0, c1[1]\n"
            "selection = t0\n"
            "sum += popcount(t2) << 0\n"
            "sum += popcount(t3) << 1\n");
  ASSERT_EQ(plan.sum_regs.size(), 2u);
}

TEST(plan, degenerate_slice_predicate_copies_into_scratch) {
  // `x == 1` on a 1-bit column is the bare slice; the plan must still
  // land the selection in a writable scratch register.
  const table_schema schema{{{"x", 1}}};
  query_spec spec;
  spec.where = predicate_node::leaf("x", {db::cmp_op::eq, 1, 0});
  const query_plan plan = plan_query(schema, spec);
  EXPECT_EQ(to_string(plan),
            "t0 = OR c0[0], c0[0]\n"
            "selection = t0\n"
            "count = popcount(selection)\n");
  EXPECT_GE(plan.selection, plan.input_count());
}

TEST(plan, and_tree_emits_both_leaves_then_combines) {
  const table_schema schema{{{"x", 4}, {"y", 3}}};
  query_spec spec;
  spec.where = predicate_node::land(
      predicate_node::leaf("x", {db::cmp_op::ge, 6, 0}),
      predicate_node::leaf("y", {db::cmp_op::ne, 3, 0}));
  const query_plan plan = plan_query(schema, spec);
  // Last step combines the two leaf results with AND.
  ASSERT_FALSE(plan.steps.empty());
  EXPECT_EQ(plan.steps.back().op, dram::bulk_op::and_op);
  EXPECT_EQ(plan.steps.back().d, plan.selection);
  // Inputs reference both columns.
  bool saw_x = false;
  bool saw_y = false;
  for (const slice_ref& in : plan.inputs) {
    saw_x |= in.column == 0;
    saw_y |= in.column == 1;
  }
  EXPECT_TRUE(saw_x);
  EXPECT_TRUE(saw_y);
}

TEST(plan, rejects_unknown_column_and_missing_sum_column) {
  const table_schema schema{{{"x", 4}}};
  query_spec spec;
  spec.where = predicate_node::leaf("nope", {db::cmp_op::lt, 1, 0});
  EXPECT_THROW(plan_query(schema, spec), std::invalid_argument);

  query_spec sum_spec;
  sum_spec.where = predicate_node::leaf("x", {db::cmp_op::lt, 1, 0});
  sum_spec.agg = agg_kind::sum;  // agg_column left empty
  EXPECT_THROW(plan_query(schema, sum_spec), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// End-to-end execution
// ---------------------------------------------------------------------------

service::service_config small_config(int shards, int partitions) {
  service::service_config cfg;
  cfg.shards = shards;
  cfg.system.org.channels = 2;
  cfg.system.org.ranks = 1;
  cfg.system.org.banks = 4;
  cfg.system.org.subarrays = 4;
  cfg.system.org.rows = 512;
  cfg.system.org.columns = 128;
  cfg.routing = service::shard_routing::range;
  cfg.sessions_per_shard = static_cast<std::uint64_t>(
      std::max(1, partitions / shards));
  return cfg;
}

/// Test data: two columns over `rows` rows, deterministic.
struct dataset {
  table_schema schema{{{"x", 6}, {"y", 4}}};
  db::column x;
  db::column y;

  explicit dataset(std::size_t rows) {
    rng gen(2026);
    x = db::random_column(rows, 6, gen);
    y = db::random_column(rows, 4, gen);
  }
};

/// Host-side reference: evaluates the predicate tree with the scalar
/// column evaluator.
bitvector reference_selection(const dataset& data,
                              const predicate_node& node) {
  switch (node.kind) {
    case predicate_node::node_kind::leaf: {
      const db::column& col = node.column == "x" ? data.x : data.y;
      return db::evaluate_reference(col, node.pred);
    }
    case predicate_node::node_kind::logic_and: {
      bitvector acc = reference_selection(data, node.children[0]);
      for (std::size_t i = 1; i < node.children.size(); ++i) {
        acc &= reference_selection(data, node.children[i]);
      }
      return acc;
    }
    case predicate_node::node_kind::logic_or: {
      bitvector acc = reference_selection(data, node.children[0]);
      for (std::size_t i = 1; i < node.children.size(); ++i) {
        acc |= reference_selection(data, node.children[i]);
      }
      return acc;
    }
    case predicate_node::node_kind::logic_not:
      return ~reference_selection(data, node.children[0]);
  }
  throw std::logic_error("unknown node kind");
}

std::uint64_t reference_sum(const dataset& data, const bitvector& selection) {
  std::uint64_t sum = 0;
  for (std::size_t r = 0; r < selection.size(); ++r) {
    if (selection.get(r)) sum += data.y.values[r];
  }
  return sum;
}

/// The query mix every variant runs: scans, boundary constants,
/// empty/all-match, an out-of-range constant, AND/OR trees, and a sum.
std::vector<query_spec> query_mix() {
  std::vector<query_spec> specs;
  auto leaf = [](const char* col, db::cmp_op op, std::uint32_t v,
                 std::uint32_t v2 = 0) {
    return predicate_node::leaf(col, {op, v, v2});
  };
  {
    query_spec q;
    q.where = leaf("x", db::cmp_op::lt, 17);
    specs.push_back(q);
  }
  {
    query_spec q;
    q.where = leaf("x", db::cmp_op::between, 10, 40);
    specs.push_back(q);
  }
  {
    query_spec q;  // empty: nothing is below zero
    q.where = leaf("x", db::cmp_op::lt, 0);
    specs.push_back(q);
  }
  {
    query_spec q;  // all-match: everything is >= 0
    q.where = leaf("x", db::cmp_op::ge, 0);
    specs.push_back(q);
  }
  {
    query_spec q;  // constant outside the 6-bit domain: empty, by clamping
    q.where = leaf("x", db::cmp_op::eq, 600);
    specs.push_back(q);
  }
  {
    query_spec q;  // multi-column AND
    q.where = predicate_node::land(leaf("x", db::cmp_op::lt, 20),
                                   leaf("y", db::cmp_op::ge, 3));
    specs.push_back(q);
  }
  {
    query_spec q;  // OR with NOT
    q.where = predicate_node::lor(
        leaf("x", db::cmp_op::eq, 5),
        predicate_node::lnot(leaf("y", db::cmp_op::lt, 2)));
    specs.push_back(q);
  }
  {
    query_spec q;  // sum aggregate
    q.where = leaf("x", db::cmp_op::lt, 32);
    q.agg = agg_kind::sum;
    q.agg_column = "y";
    specs.push_back(q);
  }
  return specs;
}

struct run_outcome {
  std::vector<std::uint64_t> digests;
  std::vector<std::uint64_t> gathered;
  std::vector<std::uint64_t> sums;
};

/// Runs the whole mix over already-open sessions (the last one is the
/// collector) and checks every result against the host reference.
run_outcome run_mix(const dataset& data,
                    std::vector<service::client_api*> sessions) {
  service::client_api* collector = sessions.back();
  sessions.pop_back();
  pim_table table(data.schema, data.x.rows(), sessions,
                  /*scratch_vectors=*/16);
  table.load("x", data.x);
  table.load("y", data.y);
  selection_gatherer gatherer(*collector);
  exec_options opts;
  opts.gather = &gatherer;

  run_outcome outcome;
  for (const query_spec& spec : query_mix()) {
    const query_result result = run_query(table, spec, opts);
    const bitvector expected = reference_selection(data, spec.where);
    EXPECT_EQ(result.selection, expected);
    EXPECT_EQ(result.matches, expected.popcount());
    if (spec.agg == agg_kind::sum) {
      EXPECT_EQ(result.sum, reference_sum(data, expected));
      outcome.sums.push_back(result.sum);
    }
    outcome.digests.push_back(result.digest);
    outcome.gathered.push_back(result.gathered_digest);
  }
  return outcome;
}

run_outcome run_in_process(const dataset& data, int shards, int partitions) {
  service::pim_service svc(small_config(shards, partitions + 1));
  svc.start();
  std::vector<std::unique_ptr<service::service_client>> clients;
  std::vector<service::client_api*> sessions;
  for (int p = 0; p < partitions + 1; ++p) {
    clients.push_back(std::make_unique<service::service_client>(svc));
    sessions.push_back(clients.back().get());
  }
  const run_outcome outcome = run_mix(data, std::move(sessions));
  svc.stop();
  return outcome;
}

TEST(query_engine, matches_reference_across_shard_counts) {
  // 1003 rows over 4 partitions: 251/251/251/250 — the last partition
  // is shorter, so boundary rows are exercised by construction.
  const dataset data(1003);
  const run_outcome one = run_in_process(data, 1, 4);
  const run_outcome two = run_in_process(data, 2, 4);
  const run_outcome four = run_in_process(data, 4, 4);
  EXPECT_EQ(one.digests, two.digests);
  EXPECT_EQ(one.digests, four.digests);
  EXPECT_EQ(one.gathered, two.gathered);
  EXPECT_EQ(one.gathered, four.gathered);
  EXPECT_EQ(one.sums, two.sums);
  EXPECT_EQ(one.sums, four.sums);
}

TEST(query_engine, matches_synchronous_bitweaving_scan) {
  // The executed task graph must reproduce db::evaluate — the same
  // lowering interpreted synchronously — bit for bit.
  const dataset data(777);
  const db::bitslice_storage storage(data.x);
  const db::predicate pred{db::cmp_op::between, 9, 33};

  service::pim_service svc(small_config(2, 3));
  svc.start();
  {
    std::vector<std::unique_ptr<service::service_client>> clients;
    std::vector<service::client_api*> sessions;
    for (int p = 0; p < 3; ++p) {
      clients.push_back(std::make_unique<service::service_client>(svc));
      sessions.push_back(clients.back().get());
    }
    pim_table table({{{"x", 6}}}, data.x.rows(), sessions, 16);
    table.load("x", data.x);
    query_spec spec;
    spec.where = predicate_node::leaf("x", pred);
    const query_result result = run_query(table, spec);
    EXPECT_EQ(result.selection, db::evaluate(storage, pred).selection);
    EXPECT_EQ(result.selection, db::evaluate_reference(data.x, pred));
  }
  svc.stop();
}

TEST(query_engine, remote_transport_matches_in_process) {
  const dataset data(512);
  const int partitions = 3;
  const run_outcome local = run_in_process(data, 2, partitions);

  net::server_config cfg;
  cfg.service = small_config(2, partitions + 1);
  net::pim_server server(cfg);
  server.start();
  run_outcome remote;
  {
    std::vector<std::unique_ptr<net::remote_client>> clients;
    std::vector<service::client_api*> sessions;
    for (int p = 0; p < partitions + 1; ++p) {
      clients.push_back(
          std::make_unique<net::remote_client>("127.0.0.1", server.port()));
      sessions.push_back(clients.back().get());
    }
    remote = run_mix(data, std::move(sessions));
  }
  server.stop();

  EXPECT_EQ(remote.digests, local.digests);
  EXPECT_EQ(remote.gathered, local.gathered);
  EXPECT_EQ(remote.sums, local.sums);
}

TEST(query_engine, rejects_plan_larger_than_scratch_pool) {
  const dataset data(256);
  service::pim_service svc(small_config(1, 2));
  svc.start();
  {
    service::service_client a(svc);
    service::service_client b(svc);
    pim_table table(data.schema, data.x.rows(), {&a, &b},
                    /*scratch_vectors=*/1);
    table.load("x", data.x);
    query_spec spec;
    spec.where = predicate_node::leaf("x", {db::cmp_op::lt, 17, 0});
    EXPECT_THROW(run_query(table, spec), std::invalid_argument);
  }
  svc.stop();
}

TEST(pim_table, validates_construction) {
  service::pim_service svc(small_config(1, 1));
  svc.start();
  {
    service::service_client only(svc);
    EXPECT_THROW(pim_table({{{"x", 0}}}, 100, {&only}, 4),
                 std::invalid_argument);
    EXPECT_THROW(pim_table({{{"x", 8}}}, 0, {&only}, 4),
                 std::invalid_argument);
    EXPECT_THROW(pim_table({}, 100, {&only}, 4), std::invalid_argument);

    pim_table table({{{"x", 4}}}, 100, {&only}, 4);
    db::column wrong_width;
    wrong_width.bit_width = 5;
    wrong_width.values.assign(100, 0);
    EXPECT_THROW(table.load("x", wrong_width), std::invalid_argument);
    db::column wrong_rows;
    wrong_rows.bit_width = 4;
    wrong_rows.values.assign(99, 0);
    EXPECT_THROW(table.load("x", wrong_rows), std::invalid_argument);

    // A value wider than its column is rejected before any partition is
    // written: partition 0 keeps the last valid load although the bad
    // value sits in partition 1.
    service::service_client second(svc);
    pim_table split({{{"x", 4}}}, 100, {&only, &second}, 4);
    db::column valid;
    valid.bit_width = 4;
    valid.values.assign(100, 9);
    split.load("x", valid);
    db::column too_wide;
    too_wide.bit_width = 4;
    too_wide.values.assign(100, 0);
    too_wide.values.back() = 20;
    EXPECT_THROW(split.load("x", too_wide), std::invalid_argument);
    EXPECT_EQ(only.read(split.slice(0, 0, 0)),
              bitvector(split.partition_rows(0), true));
  }
  svc.stop();
}

}  // namespace
}  // namespace pim::query
