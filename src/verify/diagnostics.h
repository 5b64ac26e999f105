// Diagnostic catalog of the static plan/program verifier.
//
// Every invariant the verifier enforces has a stable identifier
// ("V001 use-before-def") that producers are linted against: the
// planner's register programs, cross-shard task plans, and the wire
// opcode table each get their own hundred-block. The IDs are a
// contract — tools/pim_lint prints them, tests/verify_test.cpp proves
// each one fires on a seeded-bad input, and docs/static_analysis.md
// documents one worked example per ID — so future producers (KV ADO
// plans, replication log shipping) can cite them in their own gates.
// Renumbering an ID is a breaking change; retired IDs stay reserved.
#ifndef PIM_VERIFY_DIAGNOSTICS_H
#define PIM_VERIFY_DIAGNOSTICS_H

#include <string>
#include <vector>

namespace pim::verify {

/// Stable diagnostic identifiers. The numeric value *is* the catalog
/// number: V001 = 1, V110 = 110, V301 = 301. Blocks:
///   V0xx  register programs (db::scan_program)
///   V1xx  query plans (query::query_plan) and operand bindings
///   V2xx  task graphs and cross-shard plans
///   V3xx  wire schema (net/protocol.h opcode table)
enum class diag : int {
  // --- register programs ---------------------------------------------------
  use_before_def = 1,        // scratch register read before any write
  write_to_slice = 2,        // destination names a read-only slice register
  register_out_of_range = 3, // operand/destination outside the register file
  arity_mismatch = 4,        // unary op with b operand, or binary op without
  result_invalid = 5,        // result register unset, out of range, undefined
  dead_instruction = 6,      // write that no later read (or the result) observes
  unused_scratch = 7,        // scratch register never read or written
  scratch_budget = 8,        // scratch count exceeds the partition's pool

  // --- query plans ---------------------------------------------------------
  input_out_of_schema = 101,      // slice_ref names a column/bit the schema lacks
  plan_use_before_def = 102,      // scratch register read before any write
  plan_write_to_input = 103,      // step writes a column-slice register
  plan_register_out_of_range = 104,
  plan_arity_mismatch = 105,
  selection_invalid = 106,        // selection unset, out of range, or undefined
  aggregate_invalid = 107,        // sum_regs/agg_column inconsistent with agg
  dead_step = 108,                // step no selection/aggregate read observes
  plan_scratch_budget = 109,      // plan needs more scratch than the table pool
  colocation_violation = 110,     // step operands not one co-located TRA group

  // --- task graphs / cross-shard plans -------------------------------------
  unknown_dependency = 201,   // dependency edge names a node outside the graph
  dependency_cycle = 202,     // task graph is not a DAG
  unordered_hazard = 203,     // conflicting tasks with no ordering path
  unresolvable_operand = 204, // operand owner missing from the session remap
  cross_arity_mismatch = 205, // unary/binary operand count wrong
  operand_size_mismatch = 206,// operand bit sizes / row counts disagree

  // --- wire schema ----------------------------------------------------------
  opcode_range = 301,         // request >= 64 or response < 64
  duplicate_opcode = 302,     // two table entries share an opcode value
  missing_response_arm = 303, // request without a response opcode in the table
  // 304 (version-bounds) is retired: the wire has one version.
};

/// "V001"-style stable identifier.
std::string id_of(diag d);

/// Catalog entry: the short kebab-case title pim_lint prints next to
/// the ID, plus a one-line summary.
struct diag_info {
  diag d = diag::use_before_def;
  const char* title = "";
  const char* summary = "";
};

/// Every diagnostic the verifier can emit, catalog order. The
/// self-test (verify/selftest.h) proves each entry fires on a
/// seeded-bad artifact.
const std::vector<diag_info>& catalog();

/// Catalog entry for `d`; throws std::invalid_argument for an unknown
/// id (a checker emitting an uncataloged diagnostic is itself a bug).
const diag_info& info_of(diag d);

/// One finding: which invariant broke, where (an instruction/step/node
/// index, or the artifact itself when -1), and the human-readable
/// specifics.
struct diagnostic {
  diag d = diag::use_before_def;
  int location = -1;
  std::string message;
};

/// A checker's verdict over one artifact.
struct report {
  std::string artifact;  // what was checked ("plan x<32", "wire schema")
  std::vector<diagnostic> diagnostics;

  bool ok() const { return diagnostics.empty(); }
  bool has(diag d) const;
  void add(diag d, int location, std::string message);

  /// "V006 dead-instruction @3: t1 written but never read" per line;
  /// "ok" for a clean report.
  std::string to_string() const;
};

/// Throws std::logic_error carrying report::to_string() when the
/// report has findings — the debug-build hot-path hook (plan_query,
/// submit_cross) and the test helper.
void assert_ok(const report& r);

}  // namespace pim::verify

#endif  // PIM_VERIFY_DIAGNOSTICS_H
