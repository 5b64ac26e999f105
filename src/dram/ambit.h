// Ambit: in-DRAM bulk bitwise operations (MICRO'17).
//
// Three pieces:
//  - ambit_allocator places bulk bit vectors into DRAM rows such that
//    corresponding operand rows share a subarray (a TRA requirement),
//    striping consecutive rows across banks for parallelism;
//  - ambit_compiler translates a bulk Boolean op into the published
//    AAP/TRA macro-step schedule over the subarray's reserved rows
//    (NOT = 2 steps, AND/OR = 4, NAND/NOR = 5, XOR/XNOR = 7 with the
//    full B-group row decoder, or a composed 16-step fallback with a
//    minimal decoder — an ablation the benches exercise);
//  - ambit_engine executes ops on a memory_system: it enqueues the
//    command stream per row (timing/energy) and applies the functional
//    result to the row store on completion.
#ifndef PIM_DRAM_AMBIT_H
#define PIM_DRAM_AMBIT_H

#include <functional>
#include <string>
#include <vector>

#include "dram/memory_system.h"
#include "dram/subarray_layout.h"

namespace pim::dram {

enum class bulk_op { not_op, and_op, or_op, nand_op, nor_op, xor_op, xnor_op };

std::string to_string(bulk_op op);
bool is_unary(bulk_op op);

/// All seven ops, in the order the paper reports them.
const std::vector<bulk_op>& all_bulk_ops();

/// A bulk bit vector stored as whole DRAM rows.
struct bulk_vector {
  bits size = 0;
  std::vector<address> rows;  // row-granular storage in logical order
};

/// Places groups of co-located vectors.
class ambit_allocator {
 public:
  explicit ambit_allocator(const organization& org);

  /// Allocates `count` vectors of `size` bits. For every row index i,
  /// the i-th rows of all vectors share one subarray; consecutive row
  /// indices rotate across (channel, rank, bank, subarray) for
  /// bank-level parallelism. Freed slots are recycled before fresh
  /// capacity is consumed. Throws std::invalid_argument, before
  /// reserving anything, when `count` exceeds one subarray's data rows
  /// or the group exceeds the free capacity; std::runtime_error when
  /// the free slots are too fragmented to place it.
  std::vector<bulk_vector> allocate_group(bits size, int count);

  /// Returns every row of `group` to the free pool for reuse by later
  /// allocations — the reclaim path session migration uses, so a shard
  /// that migrates tenants away recovers their capacity instead of
  /// leaking it. Freed rows keep their last contents (a fresh
  /// allocation never promises zeroed rows). Throws
  /// std::invalid_argument on a row that was never allocated or is
  /// already free (double free).
  void free_group(const std::vector<bulk_vector>& group);
  void free_rows(const std::vector<address>& rows);

  /// Data-row slots currently available (fresh + freed) — the
  /// capacity-reclaim regression signal.
  std::size_t free_slots() const;

 private:
  /// Flat stripe-unit index of an address (bank fastest, matching
  /// allocate_group's decomposition) and its slot within the unit.
  std::size_t unit_of(const address& a, int& slot) const;

  organization org_;
  subarray_layout layout_;
  std::vector<int> next_slot_;  // per stripe unit: bump pointer
  /// Per stripe unit: slots handed back by free_*; consumed before the
  /// bump pointer advances.
  std::vector<std::vector<int>> freed_;
  std::size_t cursor_ = 0;
};

/// One AAP-class macro step of an Ambit schedule.
struct ambit_step {
  bool tra = false;  // first activation is a triple-row activation
  int src_row = 0;   // ignored when tra (the TRA drives the amps)
  int dst_row = 0;   // row receiving the copy-activate
};

/// Compiles ops to macro-step schedules over a given subarray.
class ambit_compiler {
 public:
  ambit_compiler(const organization& org, bool rich_decoder);

  /// Schedule computing d = op(a[, b]) for rows in `subarray`.
  /// Row indices are absolute within the bank.
  std::vector<ambit_step> compile(bulk_op op, int subarray, int row_a,
                                  int row_b, int row_d) const;

  /// Number of macro steps for an op (each step costs one AAP).
  int step_count(bulk_op op) const;

  bool rich_decoder() const { return rich_; }

 private:
  subarray_layout layout_;
  bool rich_;
};

/// Executes bulk ops on a memory_system.
class ambit_engine {
 public:
  /// Compiles with the full B-group decoder.
  explicit ambit_engine(memory_system& mem);

  /// Functional host access to a vector (no timing).
  void write_vector(const bulk_vector& v, const bitvector& data);
  bitvector read_vector(const bulk_vector& v) const;

  /// d = op(a) for unary ops, d = op(a, b) for binary ops (b may be
  /// null only for unary). Sizes and row co-location must match.
  /// `done` fires once every row's command sequence has completed.
  void execute(bulk_op op, const bulk_vector& a, const bulk_vector* b,
               bulk_vector& d, std::function<void()> done = {});

  /// The argument checks execute() performs (operand arity, sizes, row
  /// co-location), without side effects — lets a scheduler reject a
  /// bad request before committing any state. Throws
  /// std::invalid_argument on violation.
  void validate(bulk_op op, const bulk_vector& a, const bulk_vector* b,
                const bulk_vector& d) const;

  const ambit_compiler& compiler() const { return compiler_; }

  /// Functional semantics of an op (what a host fallback computes):
  /// the reference for the rows execute() computes in place.
  static bitvector apply(bulk_op op, const bitvector& a, const bitvector& b);

 private:
  void check_group(const bulk_vector& a, const bulk_vector* b,
                   const bulk_vector& d) const;

  memory_system& mem_;
  subarray_layout layout_;
  ambit_compiler compiler_;
};

}  // namespace pim::dram

#endif  // PIM_DRAM_AMBIT_H
