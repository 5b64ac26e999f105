#include "verify/selftest.h"

#include <algorithm>
#include <functional>
#include <map>

#include "db/lowering.h"
#include "dram/organization.h"
#include "query/plan.h"
#include "verify/graph_check.h"
#include "verify/plan_check.h"
#include "verify/program_check.h"
#include "verify/wire_check.h"

namespace pim::verify {

namespace {

// --- known-good baselines ---------------------------------------------------

/// Minimal clean program over a 2-bit column: t0 = and s0 s1;
/// t1 = or t0 s0; result t1.
db::scan_program good_program() {
  db::scan_program p;
  p.width = 2;
  p.reg_count = 4;
  p.instrs = {{dram::bulk_op::and_op, 0, 1, 2},
              {dram::bulk_op::or_op, 2, 0, 3}};
  p.result = 3;
  return p;
}

query::table_schema good_schema() {
  query::table_schema s;
  s.columns = {{"x", 2}};
  return s;
}

/// Minimal clean plan over good_schema(): selection = and(c0[0], c0[1]).
query::query_plan good_plan() {
  query::query_plan p;
  p.inputs = {{0, 0}, {0, 1}};
  p.scratch_count = 1;
  p.steps = {{dram::bulk_op::and_op, 0, 1, 2}};
  p.selection = 2;
  p.agg = query::agg_kind::count;
  return p;
}

/// Two-node graph with an ordered read-after-write hazard.
task_graph good_graph() {
  task_graph g;
  g.nodes.resize(2);
  g.nodes[0].writes = {42};
  g.nodes[1].reads = {42};
  g.nodes[1].deps = {0};
  return g;
}

service::shared_vector virtual_vec(service::session_id owner, int row) {
  service::shared_vector sv;
  sv.owner = owner;
  sv.v.size = 8;
  sv.v.rows = {dram::address{-1, 0, 0, row, 0}};
  return sv;
}

/// One clean cross-shard op: d = and(a, b), all owners placed.
std::vector<cross_op> good_cross_plan() {
  cross_op op;
  op.op = dram::bulk_op::and_op;
  op.a = virtual_vec(1, 0);
  op.b = virtual_vec(2, 1);
  op.d = virtual_vec(1, 2);
  return {op};
}

std::map<service::session_id, int> good_placement() {
  return {{1, 0}, {2, 1}};
}

dram::bulk_vector physical_vec(int row) {
  dram::bulk_vector v;
  v.size = 8;
  v.rows = {dram::address{0, 0, 0, row, 0}};
  return v;
}

// --- seeded-bad generators --------------------------------------------------

report bad_report(diag d) {
  const dram::organization org;  // default geometry, 2048 rows/subarray

  switch (d) {
    // V0xx: register programs.
    case diag::use_before_def: {
      db::scan_program p = good_program();
      p.instrs[0].a = 3;  // reads t1 before any write
      return check_program(p);
    }
    case diag::write_to_slice: {
      db::scan_program p;
      p.width = 2;
      p.reg_count = 2;
      p.instrs = {{dram::bulk_op::and_op, 0, 1, 1}};  // d is a slice
      p.result = 0;
      return check_program(p);
    }
    case diag::register_out_of_range: {
      db::scan_program p = good_program();
      p.instrs[1].b = 9;  // outside [0, 4)
      return check_program(p);
    }
    case diag::arity_mismatch: {
      db::scan_program p = good_program();
      p.instrs[1].op = dram::bulk_op::not_op;  // unary, but b is set
      return check_program(p);
    }
    case diag::result_invalid: {
      db::scan_program p = good_program();
      p.result = -1;
      return check_program(p);
    }
    case diag::dead_instruction: {
      db::scan_program p = good_program();
      p.instrs[1].a = 0;  // t1 = or s0 s0: nothing reads t0 any more
      return check_program(p);
    }
    case diag::unused_scratch: {
      db::scan_program p = good_program();
      p.reg_count = 5;  // t2 allocated, never touched
      return check_program(p);
    }
    case diag::scratch_budget: {
      return check_program(good_program(), /*scratch_budget=*/1);
    }

    // V1xx: query plans.
    case diag::input_out_of_schema: {
      query::query_plan p = good_plan();
      p.inputs[1].bit = 5;  // 2-bit column has bits [0, 2)
      return check_plan(good_schema(), p);
    }
    case diag::plan_use_before_def: {
      query::query_plan p = good_plan();
      p.scratch_count = 2;
      p.steps = {{dram::bulk_op::and_op, 3, 1, 2},  // reads t1 first
                 {dram::bulk_op::or_op, 2, 0, 3}};
      p.selection = 3;
      return check_plan(good_schema(), p);
    }
    case diag::plan_write_to_input: {
      query::query_plan p = good_plan();
      p.steps.push_back({dram::bulk_op::or_op, 0, 1, 0});  // writes c0[0]
      return check_plan(good_schema(), p);
    }
    case diag::plan_register_out_of_range: {
      query::query_plan p = good_plan();
      p.steps[0].b = 9;
      return check_plan(good_schema(), p);
    }
    case diag::plan_arity_mismatch: {
      query::query_plan p = good_plan();
      p.steps[0].op = dram::bulk_op::not_op;  // unary, but b is set
      return check_plan(good_schema(), p);
    }
    case diag::selection_invalid: {
      query::query_plan p = good_plan();
      p.selection = 0;  // an input register, never a valid selection
      return check_plan(good_schema(), p);
    }
    case diag::aggregate_invalid: {
      query::query_plan p = good_plan();
      p.agg = query::agg_kind::sum;
      p.agg_column = 0;
      p.sum_regs = {2};  // 2-bit column needs two mask registers
      return check_plan(good_schema(), p);
    }
    case diag::dead_step: {
      query::query_plan p = good_plan();
      p.scratch_count = 2;
      p.steps = {{dram::bulk_op::and_op, 0, 1, 2},  // t0 never read
                 {dram::bulk_op::or_op, 0, 1, 3}};
      p.selection = 3;
      return check_plan(good_schema(), p);
    }
    case diag::plan_scratch_budget: {
      return check_plan(good_schema(), good_plan(), /*scratch_budget=*/0);
    }
    case diag::colocation_violation: {
      // Destination one subarray below the sources.
      resolved_step step;
      step.operands = {physical_vec(0), physical_vec(1),
                       physical_vec(org.rows_per_subarray())};
      return check_colocation(org, {step});
    }

    // V2xx: task graphs / cross-shard plans.
    case diag::unknown_dependency: {
      task_graph g = good_graph();
      g.nodes[1].deps = {5};
      return check_task_graph(g);
    }
    case diag::dependency_cycle: {
      task_graph g = good_graph();
      g.nodes[0].deps = {1};  // 0 -> 1 -> 0
      return check_task_graph(g);
    }
    case diag::unordered_hazard: {
      task_graph g = good_graph();
      g.nodes[1].deps.clear();  // hazard stays, ordering edge gone
      return check_task_graph(g);
    }
    case diag::unresolvable_operand: {
      std::map<service::session_id, int> placement = good_placement();
      placement.erase(2);  // b's owner falls out of the remap
      return check_cross_plan(good_cross_plan(), placement);
    }
    case diag::cross_arity_mismatch: {
      std::vector<cross_op> ops = good_cross_plan();
      ops[0].op = dram::bulk_op::not_op;  // unary, but b is set
      return check_cross_plan(ops, good_placement());
    }
    case diag::operand_size_mismatch: {
      std::vector<cross_op> ops = good_cross_plan();
      ops[0].b->v.size = 16;  // a and d are 8 bits
      return check_cross_plan(ops, good_placement());
    }

    // V3xx: wire schema.
    case diag::opcode_range: {
      wire_schema_info s = canonical_wire_schema();
      s.opcodes[0].value = 100;  // a request in the response range
      return check_wire_schema(s);
    }
    case diag::duplicate_opcode: {
      wire_schema_info s = canonical_wire_schema();
      s.opcodes[1].value = s.opcodes[0].value;
      return check_wire_schema(s);
    }
    case diag::missing_response_arm: {
      wire_schema_info s = canonical_wire_schema();
      s.opcodes.erase(
          std::find_if(s.opcodes.begin(), s.opcodes.end(),
                       [](const opcode_info& op) {
                         return std::string(op.name) == "waited";
                       }));
      return check_wire_schema(s);  // wait's response arm is gone
    }
  }

  report r;
  r.artifact = "selftest";
  r.add(d, -1, "no seeded-bad generator for this diagnostic");
  return r;
}

}  // namespace

std::vector<selftest_result> run_selftest() {
  std::vector<selftest_result> results;
  for (const diag_info& info : catalog()) {
    selftest_result res;
    res.d = info.d;
    const report r = bad_report(info.d);
    if (r.artifact == "selftest") {
      res.fired = false;
      res.detail = "no seeded-bad generator";
    } else {
      res.fired = r.has(info.d);
      if (!res.fired) res.detail = r.to_string();
    }
    results.push_back(std::move(res));
  }
  return results;
}

std::vector<std::pair<std::string, report>> baseline_reports() {
  std::vector<std::pair<std::string, report>> reports;
  reports.emplace_back("good scan_program", check_program(good_program()));
  reports.emplace_back("good query_plan",
                       check_plan(good_schema(), good_plan()));
  const dram::organization org;
  resolved_step step;
  step.operands = {physical_vec(0), physical_vec(1), physical_vec(2)};
  reports.emplace_back("co-located binding", check_colocation(org, {step}));
  reports.emplace_back("good task_graph", check_task_graph(good_graph()));
  reports.emplace_back("good cross_plan",
                       check_cross_plan(good_cross_plan(), good_placement()));
  reports.emplace_back("canonical wire schema",
                       check_wire_schema(canonical_wire_schema()));
  return reports;
}

std::string to_string(const std::vector<selftest_result>& results) {
  std::string out;
  for (const selftest_result& r : results) {
    out += id_of(r.d) + " " + info_of(r.d).title + ": ";
    out += r.fired ? "fired" : ("MISSED (" + r.detail + ")");
    out += "\n";
  }
  return out;
}

}  // namespace pim::verify
