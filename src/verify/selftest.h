// Self-test of the diagnostic catalog: one seeded-bad artifact per
// diagnostic ID, plus known-good baselines per artifact family.
//
// The catalog is a contract ("V001 fires on use-before-def"), and a
// contract nobody exercises rots: a checker refactor can silently stop
// emitting an ID while every clean corpus still passes. run_selftest()
// closes that hole — it walks catalog() (so a newly added ID without a
// seeded-bad generator is itself a failure), mutates a minimal good
// artifact into one that violates exactly that invariant, and records
// whether the checker fired. tools/pim_lint --self-test runs it from
// CI; tests/verify_test.cpp asserts on the same results.
#ifndef PIM_VERIFY_SELFTEST_H
#define PIM_VERIFY_SELFTEST_H

#include <string>
#include <utility>
#include <vector>

#include "verify/diagnostics.h"

namespace pim::verify {

/// Outcome of one seeded-bad mutation: did checking the mutated
/// artifact emit the targeted diagnostic?
struct selftest_result {
  diag d = diag::use_before_def;
  bool fired = false;
  /// The mutated artifact's full report — what DID fire, for
  /// diagnosing a miss.
  std::string detail;
};

/// One result per catalog() entry, catalog order. An entry whose
/// generator is missing reports fired = false with a "no seeded-bad
/// generator" detail, so catalog growth cannot outpace the self-test.
std::vector<selftest_result> run_selftest();

/// The known-good baseline artifacts, checked: every report must be
/// clean. (name, report) pairs — one per artifact family, plus the
/// canonical wire schema.
std::vector<std::pair<std::string, report>> baseline_reports();

/// Human-readable summary ("V001 use-before-def: fired" per line).
std::string to_string(const std::vector<selftest_result>& results);

}  // namespace pim::verify

#endif  // PIM_VERIFY_SELFTEST_H
