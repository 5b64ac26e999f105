#include "db/bitweaving.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "db/lowering.h"

namespace pim::db {

column random_column(std::size_t rows, int bit_width, rng& gen) {
  if (bit_width <= 0 || bit_width > 32) {
    throw std::invalid_argument("random_column: bad bit width");
  }
  column col;
  col.bit_width = bit_width;
  col.values.resize(rows);
  const std::uint64_t bound = std::uint64_t{1} << bit_width;
  for (auto& v : col.values) {
    v = static_cast<std::uint32_t>(gen.next_below(bound));
  }
  return col;
}

namespace {

/// Transposes a 64-row block: bit i of out[b] is bit b of block[i].
/// Values are at most 32 bits wide, so rows i and i + 32 share word i to
/// start (the first stage of the 64x64 transpose in Hacker's Delight
/// 7-3), and five swap stages on 32 words finish it.
std::array<std::uint64_t, 32> transpose_block(
    const std::array<std::uint64_t, 64>& block) {
  std::array<std::uint64_t, 32> out{};
  for (int i = 0; i < 32; ++i) out[i] = block[i] | block[i + 32] << 32;
  std::uint64_t m = 0x0000FFFF0000FFFFu;
  for (int j = 16; j != 0; j >>= 1, m ^= m << j) {
    for (int k = 0; k < 32; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((out[k] >> j) ^ out[k | j]) & m;
      out[k] ^= t << j;
      out[k | j] ^= t;
    }
  }
  return out;
}

}  // namespace

bitslice_storage::bitslice_storage(const column& col)
    : width_(col.bit_width), rows_(col.rows()) {
  if (width_ < 1 || width_ > 32) {
    throw std::invalid_argument("bitslice_storage: width outside [1, 32]");
  }
  std::uint32_t seen = 0;
  for (const std::uint32_t v : col.values) seen |= v;
  if ((std::uint64_t{seen} >> width_) != 0) {
    throw std::invalid_argument("bitslice_storage: value wider than its column");
  }
  slices_.assign(static_cast<std::size_t>(width_), bitvector(rows_));
  for (std::size_t w = 0, first = 0; first < rows_; ++w, first += 64) {
    std::array<std::uint64_t, 64> block{};  // a tail block stays zero-padded
    std::copy_n(col.values.begin() + static_cast<std::ptrdiff_t>(first),
                std::min<std::size_t>(64, rows_ - first), block.begin());
    const std::array<std::uint64_t, 32> words = transpose_block(block);
    for (std::size_t b = 0; b < slices_.size(); ++b) {
      slices_[b].set_word(w, words[b]);
    }
  }
}

std::uint32_t bitslice_storage::value_at(std::size_t row) const {
  if (row >= rows_) {
    throw std::out_of_range("bitslice_storage: row out of range");
  }
  std::uint32_t v = 0;
  for (int b = 0; b < width_; ++b) {
    if (slices_[static_cast<std::size_t>(b)].get(row)) {
      v |= std::uint32_t{1} << b;
    }
  }
  return v;
}

scan_result evaluate(const bitslice_storage& storage, const predicate& pred) {
  // One lowering for every consumer: the same program the PIM-native
  // query planner executes as an asynchronous task graph is interpreted
  // here, so the op tally the latency models price can never drift from
  // the ops a live plan actually submits.
  const scan_program program = lower_predicate(storage.width(), pred);
  scan_result result;
  result.selection = run_program(program, storage, &result.ops);
  return result;
}

bitvector evaluate_reference(const column& col, const predicate& pred) {
  bitvector out(col.rows());
  for (std::size_t r = 0; r < col.rows(); ++r) {
    const std::uint32_t v = col.values[r];
    bool match = false;
    switch (pred.op) {
      case cmp_op::eq: match = v == pred.value; break;
      case cmp_op::ne: match = v != pred.value; break;
      case cmp_op::lt: match = v < pred.value; break;
      case cmp_op::le: match = v <= pred.value; break;
      case cmp_op::gt: match = v > pred.value; break;
      case cmp_op::ge: match = v >= pred.value; break;
      case cmp_op::between:
        match = v >= pred.value && v <= pred.value2;
        break;
    }
    out.set(r, match);
  }
  return out;
}

}  // namespace pim::db
