#include "dram/ambit.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

namespace pim::dram {

std::string to_string(bulk_op op) {
  switch (op) {
    case bulk_op::not_op: return "NOT";
    case bulk_op::and_op: return "AND";
    case bulk_op::or_op: return "OR";
    case bulk_op::nand_op: return "NAND";
    case bulk_op::nor_op: return "NOR";
    case bulk_op::xor_op: return "XOR";
    case bulk_op::xnor_op: return "XNOR";
  }
  throw std::logic_error("unknown bulk op");
}

bool is_unary(bulk_op op) { return op == bulk_op::not_op; }

const std::vector<bulk_op>& all_bulk_ops() {
  static const std::vector<bulk_op> ops = {
      bulk_op::not_op, bulk_op::and_op,  bulk_op::or_op,  bulk_op::nand_op,
      bulk_op::nor_op, bulk_op::xor_op, bulk_op::xnor_op};
  return ops;
}

// --------------------------------------------------------------------------
// Allocator
// --------------------------------------------------------------------------

ambit_allocator::ambit_allocator(const organization& org)
    : org_(org),
      layout_(org),
      next_slot_(static_cast<std::size_t>(org.channels) * org.ranks *
                     org.banks * org.subarrays,
                 0),
      freed_(next_slot_.size()) {}

std::vector<bulk_vector> ambit_allocator::allocate_group(bits size,
                                                         int count) {
  if (count <= 0) throw std::invalid_argument("allocate_group: count <= 0");
  const bits row_bits = org_.row_bits();
  const auto rows_needed =
      static_cast<std::size_t>((size + row_bits - 1) / row_bits);
  if (rows_needed == 0) throw std::invalid_argument("allocate_group: empty");
  // Refuse before building anything: the `count` slots of each row
  // index share one subarray, and the whole group must fit the free
  // slots.
  if (count > layout_.data_rows()) {
    throw std::invalid_argument(
        "allocate_group: count exceeds one subarray's data rows");
  }
  if (rows_needed > free_slots() / static_cast<std::size_t>(count)) {
    throw std::invalid_argument("allocate_group: exceeds free capacity");
  }

  std::vector<bulk_vector> group(static_cast<std::size_t>(count));
  for (auto& v : group) {
    v.size = size;
    v.rows.reserve(rows_needed);
  }

  // A unit's capacity is its untouched tail plus whatever free_*
  // handed back. Co-location only requires the `count` slots to share
  // the subarray, not to be contiguous, so recycled slots mix freely
  // with fresh ones.
  auto capacity = [&](std::size_t u) {
    return static_cast<std::size_t>(layout_.data_rows() - next_slot_[u]) +
           freed_[u].size();
  };

  for (std::size_t i = 0; i < rows_needed; ++i) {
    // Find the next stripe unit with `count` free slots.
    std::size_t tried = 0;
    while (tried < next_slot_.size() &&
           capacity(cursor_) < static_cast<std::size_t>(count)) {
      cursor_ = (cursor_ + 1) % next_slot_.size();
      ++tried;
    }
    if (tried == next_slot_.size() &&
        capacity(cursor_) < static_cast<std::size_t>(count)) {
      throw std::runtime_error("ambit_allocator: out of subarray capacity");
    }
    // Decompose the flat unit id into coordinates. The bank digit
    // varies fastest so consecutive rows of a vector spread across
    // banks (then channels, ranks, subarrays) — the bank-level
    // parallelism Ambit's throughput comes from.
    std::size_t unit = cursor_;
    const int bank = static_cast<int>(unit % org_.banks);
    unit /= static_cast<std::size_t>(org_.banks);
    const int channel = static_cast<int>(unit % org_.channels);
    unit /= static_cast<std::size_t>(org_.channels);
    const int rank = static_cast<int>(unit % org_.ranks);
    unit /= static_cast<std::size_t>(org_.ranks);
    const int subarray = static_cast<int>(unit);

    std::vector<int>& recycled = freed_[cursor_];
    for (int k = 0; k < count; ++k) {
      int slot;
      if (!recycled.empty()) {
        slot = recycled.back();
        recycled.pop_back();
      } else {
        slot = next_slot_[cursor_]++;
      }
      address a;
      a.channel = channel;
      a.rank = rank;
      a.bank = bank;
      a.row = layout_.data_row(subarray, slot);
      group[static_cast<std::size_t>(k)].rows.push_back(a);
    }
    // Advance to the next unit for the next row index (stripe).
    cursor_ = (cursor_ + 1) % next_slot_.size();
  }
  return group;
}

std::size_t ambit_allocator::unit_of(const address& a, int& slot) const {
  if (a.channel < 0 || a.channel >= org_.channels || a.rank < 0 ||
      a.rank >= org_.ranks || a.bank < 0 || a.bank >= org_.banks) {
    throw std::invalid_argument("ambit_allocator: address out of range");
  }
  const int subarray = layout_.subarray_of(a.row);
  if (subarray < 0 || subarray >= org_.subarrays) {
    throw std::invalid_argument("ambit_allocator: row out of range");
  }
  slot = a.row - subarray * layout_.rows_per_subarray();
  if (slot < 0 || slot >= layout_.data_rows()) {
    throw std::invalid_argument("ambit_allocator: cannot free a reserved row");
  }
  return static_cast<std::size_t>(a.bank) +
         static_cast<std::size_t>(org_.banks) *
             (static_cast<std::size_t>(a.channel) +
              static_cast<std::size_t>(org_.channels) *
                  (static_cast<std::size_t>(a.rank) +
                   static_cast<std::size_t>(org_.ranks) *
                       static_cast<std::size_t>(subarray)));
}

void ambit_allocator::free_rows(const std::vector<address>& rows) {
  for (const address& a : rows) {
    int slot = 0;
    const std::size_t unit = unit_of(a, slot);
    if (slot >= next_slot_[unit] ||
        std::find(freed_[unit].begin(), freed_[unit].end(), slot) !=
            freed_[unit].end()) {
      throw std::invalid_argument(
          "ambit_allocator: freeing a row that is not allocated");
    }
    freed_[unit].push_back(slot);
  }
}

void ambit_allocator::free_group(const std::vector<bulk_vector>& group) {
  for (const bulk_vector& v : group) free_rows(v.rows);
}

std::size_t ambit_allocator::free_slots() const {
  std::size_t total = 0;
  for (std::size_t u = 0; u < next_slot_.size(); ++u) {
    total += static_cast<std::size_t>(layout_.data_rows() - next_slot_[u]) +
             freed_[u].size();
  }
  return total;
}

// --------------------------------------------------------------------------
// Compiler
// --------------------------------------------------------------------------

ambit_compiler::ambit_compiler(const organization& org, bool rich_decoder)
    : layout_(org), rich_(rich_decoder) {}

int ambit_compiler::step_count(bulk_op op) const {
  switch (op) {
    case bulk_op::not_op: return 2;
    case bulk_op::and_op:
    case bulk_op::or_op: return 4;
    case bulk_op::nand_op:
    case bulk_op::nor_op: return 5;
    case bulk_op::xor_op: return rich_ ? 7 : 15;
    case bulk_op::xnor_op: return rich_ ? 7 : 16;
  }
  throw std::logic_error("unknown bulk op");
}

std::vector<ambit_step> ambit_compiler::compile(bulk_op op, int subarray,
                                                int row_a, int row_b,
                                                int row_d) const {
  const int t0 = layout_.t(subarray, 0);
  const int t1 = layout_.t(subarray, 1);
  const int t2 = layout_.t(subarray, 2);
  const int t3 = layout_.t(subarray, 3);
  const int dcc0 = layout_.dcc(subarray, 0);
  const int dcc0n = layout_.dccn(subarray, 0);
  const int dcc1 = layout_.dcc(subarray, 1);
  const int c0 = layout_.c0(subarray);
  const int c1 = layout_.c1(subarray);

  auto aap = [](int src, int dst) { return ambit_step{false, src, dst}; };
  auto tra = [t0](int dst) { return ambit_step{true, t0, dst}; };

  std::vector<ambit_step> steps;
  switch (op) {
    case bulk_op::not_op:
      // Copy a into the dual-contact cell, read it out through the
      // complement wordline.
      steps = {aap(row_a, dcc0), aap(dcc0n, row_d)};
      break;
    case bulk_op::and_op:
      steps = {aap(row_a, t0), aap(row_b, t1), aap(c0, t2), tra(row_d)};
      break;
    case bulk_op::or_op:
      steps = {aap(row_a, t0), aap(row_b, t1), aap(c1, t2), tra(row_d)};
      break;
    case bulk_op::nand_op:
      steps = {aap(row_a, t0), aap(row_b, t1), aap(c0, t2), tra(dcc0),
               aap(dcc0n, row_d)};
      break;
    case bulk_op::nor_op:
      steps = {aap(row_a, t0), aap(row_b, t1), aap(c1, t2), tra(dcc0),
               aap(dcc0n, row_d)};
      break;
    case bulk_op::xor_op:
    case bulk_op::xnor_op: {
      if (rich_) {
        // Seven-step schedule exploiting DCC rows inside TRAs (the
        // full B-group decoder of the Ambit paper): load both operands
        // into dual-contact cells, form the two partial ANDs (using
        // the complement wordlines for XOR, the positive ones for
        // XNOR), then a final merging TRA.
        steps = {aap(row_a, dcc0), aap(row_b, dcc1), aap(c0, t2),
                 tra(t3),          aap(c0, t2),      tra(t1),
                 tra(row_d)};
      } else {
        // Minimal decoder (ablation): compose from NOT/AND/OR.
        steps = {aap(row_b, dcc0), aap(dcc0n, t3),                 // t3 = ~b
                 aap(row_a, t0),   aap(t3, t1),     aap(c0, t2),
                 tra(t3),                                          // t3 = a & ~b
                 aap(row_a, dcc0), aap(dcc0n, t0),                 // t0 = ~a
                 aap(row_b, t1),   aap(c0, t2),
                 tra(dcc1),                                        // dcc1 = ~a & b
                 aap(t3, t0),      aap(dcc1, t1),   aap(c1, t2)};
        if (op == bulk_op::xor_op) {
          steps.push_back(tra(row_d));  // d = (a & ~b) | (~a & b)
        } else {
          steps.push_back(tra(dcc0));          // dcc0 = a ^ b
          steps.push_back(aap(dcc0n, row_d));  // d = ~(a ^ b)
        }
      }
      break;
    }
  }
  if (static_cast<int>(steps.size()) != step_count(op)) {
    throw std::logic_error("ambit_compiler: schedule length mismatch for " +
                           to_string(op));
  }
  return steps;
}

// --------------------------------------------------------------------------
// Engine
// --------------------------------------------------------------------------

ambit_engine::ambit_engine(memory_system& mem)
    : mem_(mem),
      layout_(mem.org()),
      compiler_(mem.org(), /*rich_decoder=*/true) {}

void ambit_engine::write_vector(const bulk_vector& v, const bitvector& data) {
  if (data.size() != v.size) {
    throw std::invalid_argument("write_vector: size mismatch");
  }
  // Row r holds bits [r * row_bits, (r + 1) * row_bits); every row is
  // materialized, even one past the vector's end.
  const bits row_bits = mem_.org().row_bits();
  for (std::size_t r = 0; r < v.rows.size(); ++r) {
    const std::size_t first = std::min(r * row_bits, data.size());
    mem_.row(v.rows[r]).copy_bits(0, data, first,
                                  std::min(row_bits, data.size() - first));
  }
}

bitvector ambit_engine::read_vector(const bulk_vector& v) const {
  bitvector out(v.size);
  const bits row_bits = mem_.org().row_bits();
  for (std::size_t r = 0; r < v.rows.size(); ++r) {
    const std::size_t first = std::min(r * row_bits, out.size());
    out.copy_bits(first, mem_.row_or_zero(v.rows[r]), 0,
                  std::min(row_bits, out.size() - first));
  }
  return out;
}

void ambit_engine::check_group(const bulk_vector& a, const bulk_vector* b,
                               const bulk_vector& d) const {
  if (a.size != d.size || (b != nullptr && b->size != a.size)) {
    throw std::invalid_argument("ambit execute: vector size mismatch");
  }
  if (a.rows.size() != d.rows.size() ||
      (b != nullptr && b->rows.size() != a.rows.size())) {
    throw std::invalid_argument("ambit execute: row count mismatch");
  }
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    auto same_subarray = [&](const address& x, const address& y) {
      return x.channel == y.channel && x.rank == y.rank && x.bank == y.bank &&
             layout_.subarray_of(x.row) == layout_.subarray_of(y.row);
    };
    if (!same_subarray(a.rows[i], d.rows[i]) ||
        (b != nullptr && !same_subarray(a.rows[i], b->rows[i]))) {
      throw std::invalid_argument(
          "ambit execute: operand rows not co-located in a subarray");
    }
  }
}

bitvector ambit_engine::apply(bulk_op op, const bitvector& a,
                              const bitvector& b) {
  switch (op) {
    case bulk_op::not_op: return ~a;
    case bulk_op::and_op: return a & b;
    case bulk_op::or_op: return a | b;
    case bulk_op::nand_op: return ~(a & b);
    case bulk_op::nor_op: return ~(a | b);
    case bulk_op::xor_op: return a ^ b;
    case bulk_op::xnor_op: return ~(a ^ b);
  }
  throw std::logic_error("unknown bulk op");
}

namespace {

/// d = op(a, b) (b unread for NOT), written word by word straight into
/// `d`, which may be `a` or `b`.
void compute_row(bulk_op op, const bitvector& a, const bitvector& b,
                 bitvector& d) {
  using word = bitvector::word;
  switch (op) {
    case bulk_op::not_op:
      return d.assign_words(a, b, [](word x, word) { return ~x; });
    case bulk_op::and_op:
      return d.assign_words(a, b, [](word x, word y) { return x & y; });
    case bulk_op::or_op:
      return d.assign_words(a, b, [](word x, word y) { return x | y; });
    case bulk_op::nand_op:
      return d.assign_words(a, b, [](word x, word y) { return ~(x & y); });
    case bulk_op::nor_op:
      return d.assign_words(a, b, [](word x, word y) { return ~(x | y); });
    case bulk_op::xor_op:
      return d.assign_words(a, b, [](word x, word y) { return x ^ y; });
    case bulk_op::xnor_op:
      return d.assign_words(a, b, [](word x, word y) { return ~(x ^ y); });
  }
  throw std::logic_error("unknown bulk op");
}

}  // namespace

void ambit_engine::validate(bulk_op op, const bulk_vector& a,
                            const bulk_vector* b,
                            const bulk_vector& d) const {
  if (is_unary(op) != (b == nullptr)) {
    throw std::invalid_argument("ambit execute: operand arity mismatch");
  }
  check_group(a, b, d);
}

void ambit_engine::execute(bulk_op op, const bulk_vector& a,
                           const bulk_vector* b, bulk_vector& d,
                           std::function<void()> done) {
  validate(op, a, b, d);

  // One countdown per task: the row that finishes last calls `done`.
  struct rows_left {
    std::size_t count;
    std::function<void()> done;
  };
  const auto left =
      std::make_shared<rows_left>(rows_left{a.rows.size(), std::move(done)});
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    const address& ra = a.rows[i];
    const address rb = b != nullptr ? b->rows[i] : ra;
    const address& rd = d.rows[i];
    const int subarray = layout_.subarray_of(ra.row);
    const auto steps =
        compiler_.compile(op, subarray, ra.row, rb.row, rd.row);

    bulk_sequence seq;
    seq.commands.reserve(3 * steps.size());
    for (const ambit_step& s : steps) {
      address first = ra;
      first.row = s.src_row;
      address second = ra;
      second.row = s.dst_row;
      seq.commands.push_back({s.tra ? command_kind::triple_activate
                                    : command_kind::activate,
                              first, /*bulk=*/true});
      seq.commands.push_back(
          {command_kind::copy_activate, second, /*bulk=*/true});
      seq.commands.push_back({command_kind::precharge, second, /*bulk=*/true});
    }
    seq.on_complete = [this, op, ra, rb, rd, left](picoseconds) {
      // rd may alias ra or rb: compute_row reads each word before it
      // writes it.
      bitvector& out = mem_.row(rd);
      compute_row(op, mem_.row_or_zero(ra), mem_.row_or_zero(rb), out);
      if (--left->count == 0 && left->done) left->done();
    };
    mem_.enqueue_bulk(ra.channel, std::move(seq));
  }
}

}  // namespace pim::dram
