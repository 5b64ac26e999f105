// RowClone: in-DRAM bulk data copy and initialization (MICRO'13).
//
// Two mechanisms:
//  - FPM (Fast Parallel Mode): source and destination rows share a
//    subarray; an activate-activate-precharge sequence copies a whole
//    row through the sense amplifiers in ~2x tRAS + tRP.
//  - PSM (Pipelined Serial Mode): rows in different banks of one
//    channel; data streams column-by-column over the internal bus,
//    never touching the off-chip channel pins.
#ifndef PIM_DRAM_ROWCLONE_H
#define PIM_DRAM_ROWCLONE_H

#include <functional>

#include "dram/memory_system.h"
#include "dram/subarray_layout.h"

namespace pim::dram {

class rowclone_engine {
 public:
  explicit rowclone_engine(memory_system& mem);

  /// Copies a full row within one subarray (FPM). `src` and `dst` must
  /// share channel/rank/bank/subarray; throws otherwise. The functional
  /// row contents are applied when the command sequence completes.
  void copy_fpm(const address& src, const address& dst,
                std::function<void(picoseconds)> done = {});

  /// Copies a full row between two banks of one channel (PSM).
  void copy_psm(const address& src, const address& dst,
                std::function<void(picoseconds)> done = {});

  /// Initializes a row to all zeros or all ones by FPM-copying from
  /// the subarray's constant row.
  void memset_row(const address& dst, bool ones,
                  std::function<void(picoseconds)> done = {});

  /// The argument checks the copy/memset entry points perform, without
  /// side effects — lets a scheduler reject a bad request before
  /// committing any state. Throw std::invalid_argument on violation.
  void validate_copy(const address& src, const address& dst,
                     bool same_subarray) const;
  void validate_memset(const address& dst) const;

 private:
  memory_system& mem_;
  subarray_layout layout_;
};

}  // namespace pim::dram

#endif  // PIM_DRAM_ROWCLONE_H
