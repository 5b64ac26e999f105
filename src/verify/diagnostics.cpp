#include "verify/diagnostics.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace pim::verify {

std::string id_of(diag d) {
  const int n = static_cast<int>(d);
  std::string id = "V";
  if (n < 100) id += '0';
  if (n < 10) id += '0';
  return id + std::to_string(n);
}

const std::vector<diag_info>& catalog() {
  static const std::vector<diag_info> entries = {
      {diag::use_before_def, "use-before-def",
       "scratch register read before any instruction writes it"},
      {diag::write_to_slice, "write-to-slice",
       "instruction destination names a read-only bit-slice register"},
      {diag::register_out_of_range, "register-out-of-range",
       "operand or destination outside the program's register file"},
      {diag::arity_mismatch, "arity-mismatch",
       "unary op carries a b operand, or a binary op lacks one"},
      {diag::result_invalid, "result-invalid",
       "result register unset, out of range, or never defined"},
      {diag::dead_instruction, "dead-instruction",
       "written value never observed by a later read or the result"},
      {diag::unused_scratch, "unused-scratch",
       "scratch register allocated but never read or written"},
      {diag::scratch_budget, "scratch-budget-exceeded",
       "program needs more scratch registers than the partition pool"},

      {diag::input_out_of_schema, "input-out-of-schema",
       "plan input names a column or bit the schema does not have"},
      {diag::plan_use_before_def, "plan-use-before-def",
       "plan scratch register read before any step writes it"},
      {diag::plan_write_to_input, "plan-write-to-input",
       "plan step writes a column-slice input register"},
      {diag::plan_register_out_of_range, "plan-register-out-of-range",
       "plan step operand outside the plan's register file"},
      {diag::plan_arity_mismatch, "plan-arity-mismatch",
       "plan step operand count disagrees with the op's arity"},
      {diag::selection_invalid, "selection-invalid",
       "selection register unset, out of range, or never written"},
      {diag::aggregate_invalid, "aggregate-invalid",
       "sum aggregate state inconsistent (agg_column / sum_regs)"},
      {diag::dead_step, "dead-step",
       "plan step whose value reaches neither selection nor aggregate"},
      {diag::plan_scratch_budget, "plan-scratch-budget-exceeded",
       "plan needs more scratch vectors than the table allocated"},
      {diag::colocation_violation, "colocation-violation",
       "step operands do not land in one co-located TRA vector group"},

      {diag::unknown_dependency, "unknown-dependency",
       "task dependency edge names a node outside the graph"},
      {diag::dependency_cycle, "dependency-cycle",
       "task graph contains a dependency cycle"},
      {diag::unordered_hazard, "unordered-hazard",
       "conflicting tasks with no dependency path ordering them"},
      {diag::unresolvable_operand, "unresolvable-operand",
       "operand owner session missing from the session remap"},
      {diag::cross_arity_mismatch, "cross-arity-mismatch",
       "cross-shard op operand count disagrees with the op's arity"},
      {diag::operand_size_mismatch, "operand-size-mismatch",
       "cross-shard op operand sizes or row counts disagree"},

      {diag::opcode_range, "opcode-range",
       "request opcode >= 64 or response opcode < 64"},
      {diag::duplicate_opcode, "duplicate-opcode",
       "two wire-schema entries share one opcode value"},
      {diag::missing_response_arm, "missing-response-arm",
       "request opcode without a response arm in the schema"},
  };
  return entries;
}

const diag_info& info_of(diag d) {
  for (const diag_info& e : catalog()) {
    if (e.d == d) return e;
  }
  throw std::invalid_argument("verify: uncataloged diagnostic " + id_of(d));
}

bool report::has(diag d) const {
  return std::any_of(diagnostics.begin(), diagnostics.end(),
                     [d](const diagnostic& x) { return x.d == d; });
}

void report::add(diag d, int location, std::string message) {
  diagnostics.push_back({d, location, std::move(message)});
}

std::string report::to_string() const {
  if (ok()) return "ok";
  std::ostringstream out;
  for (const diagnostic& x : diagnostics) {
    out << id_of(x.d) << " " << info_of(x.d).title;
    if (x.location >= 0) out << " @" << x.location;
    out << ": " << x.message << "\n";
  }
  return out.str();
}

void assert_ok(const report& r) {
  if (r.ok()) return;
  throw std::logic_error("verify: " + r.artifact + " failed static checks:\n" +
                         r.to_string());
}

}  // namespace pim::verify
