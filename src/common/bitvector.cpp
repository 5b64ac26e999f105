#include "common/bitvector.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace pim {

namespace {
std::size_t words_for(std::size_t bits) {
  return (bits + bitvector::word_bits - 1) / bitvector::word_bits;
}

void check_same_size(const bitvector& a, const bitvector& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("bitvector size mismatch: " +
                                std::to_string(a.size()) + " vs " +
                                std::to_string(b.size()));
  }
}
}  // namespace

bitvector::bitvector(std::size_t size, bool value)
    : size_(size), words_(words_for(size), value ? ~word{0} : word{0}) {
  clear_padding();
}

bitvector bitvector::from_string(const std::string& text) {
  bitvector v(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '1') {
      v.set(i, true);
    } else if (text[i] != '0') {
      throw std::invalid_argument("bitvector::from_string: bad char");
    }
  }
  return v;
}

bitvector bitvector::random(std::size_t size, rng& gen, double density) {
  bitvector v(size);
  if (density == 0.5) {
    for (auto& w : v.words_) w = gen.next_u64();
  } else {
    for (std::size_t i = 0; i < size; ++i) v.set(i, gen.next_bool(density));
  }
  v.clear_padding();
  return v;
}

bool bitvector::get(std::size_t i) const {
  return (words_[i / word_bits] >> (i % word_bits)) & word{1};
}

void bitvector::set(std::size_t i, bool value) {
  const word mask = word{1} << (i % word_bits);
  if (value) {
    words_[i / word_bits] |= mask;
  } else {
    words_[i / word_bits] &= ~mask;
  }
}

std::size_t bitvector::popcount() const {
  std::size_t total = 0;
  for (word w : words_) total += static_cast<std::size_t>(std::popcount(w));
  return total;
}

bool bitvector::none() const {
  for (word w : words_) {
    if (w != 0) return false;
  }
  return true;
}

bool bitvector::all() const { return popcount() == size_; }

void bitvector::fill(bool value) {
  for (auto& w : words_) w = value ? ~word{0} : word{0};
  clear_padding();
}

void bitvector::resize(std::size_t size, bool value) {
  const std::size_t old_size = size_;
  size_ = size;
  words_.resize(words_for(size), value ? ~word{0} : word{0});
  if (value && size > old_size && old_size % word_bits != 0) {
    // Fill the tail of the previously-partial last word.
    for (std::size_t i = old_size; i < std::min(size, words_for(old_size) *
                                                          word_bits);
         ++i) {
      set(i, true);
    }
  }
  clear_padding();
}

void bitvector::set_word(std::size_t w, word value) {
  words_[w] = value;
  if (w + 1 == words_.size()) clear_padding();
}

void bitvector::copy_bits(std::size_t dst_pos, const bitvector& src,
                          std::size_t src_pos, std::size_t count) {
  if (dst_pos > size_ || count > size_ - dst_pos || src_pos > src.size_ ||
      count > src.size_ - src_pos) {
    throw std::out_of_range("bitvector::copy_bits: range out of bounds");
  }
  // Each step fills the rest of one destination word (or the rest of
  // the range), gathering its bits from at most two source words.
  for (std::size_t done = 0; done < count;) {
    const std::size_t dst = dst_pos + done;
    const std::size_t src_bit = src_pos + done;
    const std::size_t dst_off = dst % word_bits;
    const std::size_t src_off = src_bit % word_bits;
    const std::size_t n = std::min(word_bits - dst_off, count - done);
    const word* in = &src.words_[src_bit / word_bits];
    word bits = in[0] >> src_off;
    if (src_off + n > word_bits) bits |= in[1] << (word_bits - src_off);
    const word mask = n == word_bits ? ~word{0} : (word{1} << n) - 1;
    word& out = words_[dst / word_bits];
    out = (out & ~(mask << dst_off)) | ((bits & mask) << dst_off);
    done += n;
  }
}

bitvector& bitvector::operator&=(const bitvector& other) {
  check_same_size(*this, other);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  return *this;
}

bitvector& bitvector::operator|=(const bitvector& other) {
  check_same_size(*this, other);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  return *this;
}

bitvector& bitvector::operator^=(const bitvector& other) {
  check_same_size(*this, other);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= other.words_[i];
  return *this;
}

void bitvector::invert() {
  for (auto& w : words_) w = ~w;
  clear_padding();
}

bitvector bitvector::operator~() const {
  bitvector result = *this;
  result.invert();
  return result;
}

bitvector bitvector::majority(const bitvector& a, const bitvector& b,
                              const bitvector& c) {
  check_same_size(a, b);
  check_same_size(a, c);
  bitvector result(a.size());
  for (std::size_t i = 0; i < result.words_.size(); ++i) {
    const word x = a.words_[i];
    const word y = b.words_[i];
    const word z = c.words_[i];
    result.words_[i] = (x & y) | (y & z) | (x & z);
  }
  return result;
}

bitvector bitvector::shifted_up(std::size_t n) const {
  bitvector result(size_);
  if (n >= size_) return result;
  const std::size_t word_shift = n / word_bits;
  const std::size_t bit_shift = n % word_bits;
  for (std::size_t i = words_.size(); i-- > word_shift;) {
    word w = words_[i - word_shift] << bit_shift;
    if (bit_shift != 0 && i > word_shift) {
      w |= words_[i - word_shift - 1] >> (word_bits - bit_shift);
    }
    result.words_[i] = w;
  }
  result.clear_padding();
  return result;
}

bool bitvector::operator==(const bitvector& other) const {
  return size_ == other.size_ && words_ == other.words_;
}

std::string bitvector::to_string() const {
  std::string text(size_, '0');
  for (std::size_t i = 0; i < size_; ++i) {
    if (get(i)) text[i] = '1';
  }
  return text;
}

void bitvector::clear_padding() {
  if (size_ % word_bits != 0 && !words_.empty()) {
    words_.back() &= (word{1} << (size_ % word_bits)) - 1;
  }
}

}  // namespace pim
