// pim_runtime: the asynchronous front door of the PIM stack.
//
// submit() routes a task through the offload-aware dispatcher and
// hands it to the bank-parallel scheduler; the returned future
// completes as simulated time advances. Batching falls out naturally:
// submit many tasks, then wait_all() — every task whose hazards are
// clear runs concurrently across (channel, bank) resources in one tick
// loop, instead of the drain-per-op serialization of the synchronous
// pim_system API (which is now a thin wrapper over this runtime).
#ifndef PIM_RUNTIME_RUNTIME_H
#define PIM_RUNTIME_RUNTIME_H

#include "runtime/dispatcher.h"
#include "runtime/scheduler.h"

namespace pim::runtime {

struct runtime_config {
  dispatch_policy policy;
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
  task_future submit_kernel(const core::kernel_profile& profile,
                            int stream = 0);

  void wait(const task_future& future) { sched_.wait(future); }
  void wait_all() { sched_.wait_all(); }
  bool idle() const { return sched_.idle(); }

  /// Fair-share lever for the host/NDP executor queues: see
  /// scheduler::set_stream_weight (Ambit/RowClone tasks issue straight
  /// to the engines and are not gated by it). The service layer maps
  /// each client session to a stream and mirrors the session weight
  /// here; fairness for bulk in-DRAM ops comes from the shard's
  /// weighted admission popping.
  void set_stream_weight(int stream, double weight) {
    sched_.set_stream_weight(stream, weight);
  }

  runtime_stats stats() const;

  dispatcher& dispatch() { return dispatcher_; }
  scheduler& sched() { return sched_; }

 private:
  dispatcher dispatcher_;
  scheduler sched_;
};

}  // namespace pim::runtime

#endif  // PIM_RUNTIME_RUNTIME_H
