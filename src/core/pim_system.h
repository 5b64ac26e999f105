// pim_system: the top-level facade of pimlib.
//
// Owns a cycle-level DRAM memory system with the Ambit and RowClone
// in-DRAM compute extensions and exposes a synchronous, allocation-
// based API: allocate bulk bit vectors, load data, run bulk Boolean
// ops, copy/initialize rows — with cycle-accurate timing and an energy
// report. This is the entry point the examples and the quickstart use.
#ifndef PIM_CORE_PIM_SYSTEM_H
#define PIM_CORE_PIM_SYSTEM_H

#include <memory>
#include <string>

#include "dram/ambit.h"
#include "dram/memory_system.h"
#include "dram/rowclone.h"
#include "runtime/runtime.h"

namespace pim::core {

struct pim_system_config {
  dram::organization org = dram::ddr3_dimm(1);
  dram::timing_params timing = dram::ddr3_1600();
  runtime::runtime_config runtime;
};

/// Timing/energy outcome of one synchronous operation.
struct op_report {
  picoseconds latency = 0;
  picojoules energy = 0;
  double throughput_gbps = 0;  // output bytes per wall-clock

  /// Builds a report with guarded throughput: a zero- or negative-
  /// latency operation reports 0 GB/s instead of dividing by zero.
  static op_report make(picoseconds latency, picojoules energy,
                        bytes output_bytes);
};

class pim_system {
 public:
  explicit pim_system(pim_system_config config = {});

  /// Allocates `count` co-located bulk vectors of `size` bits.
  std::vector<dram::bulk_vector> allocate(bits size, int count);

  /// Returns vectors' rows to the allocator's free pool for reuse —
  /// the capacity-reclaim path of session migration. The caller must
  /// ensure no in-flight task still touches the rows.
  void free_group(const std::vector<dram::bulk_vector>& group);
  void free_rows(const std::vector<dram::address>& rows);

  /// Data-row slots currently allocatable (fresh + freed).
  std::size_t free_slots() const;

  /// Host data movement (functional).
  void write(const dram::bulk_vector& v, const bitvector& data);
  bitvector read(const dram::bulk_vector& v) const;

  /// Chains a vector's contents into an FNV-1a digest (seed in, digest
  /// out; start from fnv1a_basis). The equivalence checks that guard
  /// every scheduling optimization — batched vs synchronous, sharded
  /// vs single-shard — compare digests built this way.
  std::uint64_t digest(std::uint64_t seed, const dram::bulk_vector& v) const;

  /// Synchronous bulk Boolean op: d = op(a[, b]). Returns timing and
  /// the energy spent by the command sequence. A thin wrapper over the
  /// asynchronous runtime: submit one task, wait for it.
  op_report execute(dram::bulk_op op, const dram::bulk_vector& a,
                    const dram::bulk_vector* b, dram::bulk_vector& d);

  // --- asynchronous path -------------------------------------------------
  // Submit many tasks, then wait; independent tasks overlap across
  // banks and channels instead of draining one at a time. See
  // runtime::pim_runtime for task shapes and reports.

  runtime::task_future submit(runtime::pim_task task);
  runtime::task_future submit_bulk(dram::bulk_op op,
                                   const dram::bulk_vector& a,
                                   const dram::bulk_vector* b,
                                   const dram::bulk_vector& d,
                                   int stream = 0);
  void wait(const runtime::task_future& future);
  void wait_all();

  runtime::pim_runtime& runtime() { return runtime_; }

  /// Cumulative DRAM energy since construction.
  dram::dram_energy energy() const;

  dram::memory_system& memory() { return mem_; }
  const dram::memory_system& memory() const { return mem_; }
  const dram::organization& org() const { return config_.org; }

 private:
  pim_system_config config_;
  dram::memory_system mem_;
  dram::ambit_allocator allocator_;
  dram::ambit_engine ambit_;
  dram::rowclone_engine rowclone_;
  runtime::pim_runtime runtime_;  // must follow the engines it drives
};

}  // namespace pim::core

#endif  // PIM_CORE_PIM_SYSTEM_H
