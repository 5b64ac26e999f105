// BitWeaving-V bit-sliced column storage and predicate evaluation
// (Li & Patel, SIGMOD'13), the database workload of the Ambit paper's
// end-to-end evaluation.
//
// A w-bit column over n rows is stored as w bit-slices of n bits each;
// comparison predicates evaluate with O(w) bulk bitwise operations
// regardless of n — exactly the shape Ambit accelerates.
#ifndef PIM_DB_BITWEAVING_H
#define PIM_DB_BITWEAVING_H

#include <cstdint>
#include <vector>

#include "common/bitvector.h"
#include "common/rng.h"
#include "dram/ambit.h"

namespace pim::db {

/// A fixed-width integer column.
struct column {
  int bit_width = 8;
  std::vector<std::uint32_t> values;

  std::size_t rows() const { return values.size(); }
};

/// Uniform random column with values in [0, 2^bit_width).
column random_column(std::size_t rows, int bit_width, rng& gen);

/// Vertical bit-sliced storage: slice(b) holds bit b of every row
/// (b = 0 is the least significant bit).
class bitslice_storage {
 public:
  /// Transposes the column 64 rows at a time. Throws
  /// std::invalid_argument for a width outside [1, 32] or a value of
  /// 2^width or more.
  explicit bitslice_storage(const column& col);

  int width() const { return width_; }
  std::size_t rows() const { return rows_; }
  const bitvector& slice(int bit) const { return slices_[static_cast<std::size_t>(bit)]; }

  /// Reconstructs one value (for tests). Throws std::out_of_range for
  /// a row of rows() or more.
  std::uint32_t value_at(std::size_t row) const;

 private:
  int width_;
  std::size_t rows_;
  std::vector<bitvector> slices_;
};

enum class cmp_op { eq, ne, lt, le, gt, ge, between };

struct predicate {
  cmp_op op = cmp_op::lt;
  std::uint32_t value = 0;
  std::uint32_t value2 = 0;  // upper bound for between (inclusive)
};

/// Result of a predicate scan: the selection vector plus the tally of
/// bulk bitwise operations performed (each over a `rows()`-bit vector),
/// which the cost models price on each backend.
struct scan_result {
  bitvector selection;
  std::vector<dram::bulk_op> ops;

  std::size_t matches() const { return selection.popcount(); }
};

/// Evaluates a predicate over the bit-sliced column with bulk bitwise
/// operations only (the BitWeaving-V algorithm).
scan_result evaluate(const bitslice_storage& storage, const predicate& pred);

/// Scalar reference implementation (for tests).
bitvector evaluate_reference(const column& col, const predicate& pred);

}  // namespace pim::db

#endif  // PIM_DB_BITWEAVING_H
