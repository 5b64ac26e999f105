// Dense bit vector with word-parallel Boolean algebra.
//
// This is the functional data type beneath everything bit-serial in
// pimlib: Ambit row contents, BitWeaving bit-sliced columns, bitmap
// indices, and the DNA pre-alignment example all operate on bitvector.
#ifndef PIM_COMMON_BITVECTOR_H
#define PIM_COMMON_BITVECTOR_H

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"

namespace pim {

class bitvector {
 public:
  using word = std::uint64_t;
  static constexpr std::size_t word_bits = 64;

  bitvector() = default;

  /// Vector of `size` bits, all initialized to `value`.
  explicit bitvector(std::size_t size, bool value = false);

  /// Parses a string of '0'/'1' characters, index 0 = leftmost char.
  static bitvector from_string(const std::string& text);

  /// Uniformly random contents with the given density of ones.
  static bitvector random(std::size_t size, rng& gen, double density = 0.5);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool get(std::size_t i) const;
  void set(std::size_t i, bool value);

  /// Number of set bits.
  std::size_t popcount() const;

  /// True iff no bit is set / every bit is set.
  bool none() const;
  bool all() const;

  void fill(bool value);
  void resize(std::size_t size, bool value = false);

  // Word-granularity access for the simulation layers that move rows
  // around as raw payloads (e.g. the DRAM row store).
  std::size_t word_count() const { return words_.size(); }
  word get_word(std::size_t w) const { return words_[w]; }
  void set_word(std::size_t w, word value);

  /// Copies bits [src_pos, src_pos + count) of `src` onto bits
  /// [dst_pos, dst_pos + count) of this vector a word at a time; bits
  /// outside the destination range keep their values. Throws
  /// std::out_of_range, before writing anything, if either range runs
  /// past its vector's end. `src` must be a different vector.
  void copy_bits(std::size_t dst_pos, const bitvector& src,
                 std::size_t src_pos, std::size_t count);

  /// Sets word w to f(a's word w, b's word w) for every w, reading
  /// both before writing, so `a` or `b` may be this vector. Sizes must
  /// match.
  template <typename F>
  void assign_words(const bitvector& a, const bitvector& b, F f) {
    if (a.size_ != size_ || b.size_ != size_) {
      throw std::invalid_argument("bitvector::assign_words: size mismatch");
    }
    for (std::size_t w = 0; w < words_.size(); ++w) {
      words_[w] = f(a.words_[w], b.words_[w]);
    }
    clear_padding();
  }

  // In-place Boolean algebra. Operand sizes must match.
  bitvector& operator&=(const bitvector& other);
  bitvector& operator|=(const bitvector& other);
  bitvector& operator^=(const bitvector& other);
  void invert();

  friend bitvector operator&(bitvector lhs, const bitvector& rhs) {
    lhs &= rhs;
    return lhs;
  }
  friend bitvector operator|(bitvector lhs, const bitvector& rhs) {
    lhs |= rhs;
    return lhs;
  }
  friend bitvector operator^(bitvector lhs, const bitvector& rhs) {
    lhs ^= rhs;
    return lhs;
  }
  bitvector operator~() const;

  /// Bitwise majority of three equal-sized vectors; the logical
  /// abstraction of Ambit's triple-row activation charge sharing.
  static bitvector majority(const bitvector& a, const bitvector& b,
                            const bitvector& c);

  /// Logical left shift by `n` (towards higher indices); vacated bits
  /// are zero. Used by bit-sliced arithmetic.
  bitvector shifted_up(std::size_t n) const;

  bool operator==(const bitvector& other) const;
  bool operator!=(const bitvector& other) const { return !(*this == other); }

  std::string to_string() const;

 private:
  void clear_padding();

  std::size_t size_ = 0;
  std::vector<word> words_;
};

}  // namespace pim

#endif  // PIM_COMMON_BITVECTOR_H
