// pim_runtime: the asynchronous front door of the PIM stack.
//
// submit() routes a task through the offload-aware dispatcher and
// hands it to the bank-parallel scheduler; the returned future
// completes as simulated time advances. Batching falls out naturally:
// submit many tasks, then wait_all() — every task whose hazards are
// clear runs concurrently across (channel, bank) resources in one tick
// loop, instead of the drain-per-op serialization of the synchronous
// pim_system API (which is now a thin wrapper over this runtime). The
// runtime serves tasks in the order they are submitted; fair share
// between tenants is the service shard's admission stride.
#ifndef PIM_RUNTIME_RUNTIME_H
#define PIM_RUNTIME_RUNTIME_H

#include "runtime/dispatcher.h"
#include "runtime/scheduler.h"

namespace pim::runtime {

struct runtime_config {
  scheduler_config sched;
};

/// Aggregate view of a run: scheduler counters plus where the work went.
struct runtime_stats {
  scheduler_stats sched;
  std::map<backend_kind, dispatcher::backend_stats> backends;
};

class pim_runtime {
 public:
  pim_runtime(dram::memory_system& mem, dram::ambit_engine& ambit,
              dram::rowclone_engine& rowclone, runtime_config config = {});

  /// Routes and enqueues one task; returns its completion future.
  task_future submit(pim_task task);

  // Convenience constructors for the common task shapes.
  task_future submit_bulk(dram::bulk_op op, const dram::bulk_vector& a,
                          const dram::bulk_vector* b,
                          const dram::bulk_vector& d, int stream = 0);

  void wait(const task_future& future) { sched_.wait(future); }
  void wait_all() { sched_.wait_all(); }

  runtime_stats stats() const;

  scheduler& sched() { return sched_; }

 private:
  dispatcher dispatcher_;
  scheduler sched_;
};

}  // namespace pim::runtime

#endif  // PIM_RUNTIME_RUNTIME_H
