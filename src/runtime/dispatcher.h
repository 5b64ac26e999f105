// Offload-aware dispatch: decide, per task, whether the in-DRAM
// engines (Ambit, RowClone), the stack's logic-layer cores, or the
// host CPU should run it.
//
// The dispatcher derives a kernel_profile for each task (bulk Boolean
// ops and row copies are streaming, memory-bound kernels; host_kernel
// tasks carry their own profile), feeds it to core::decide — the
// paper's roofline offload model — and routes accordingly. One rule: a
// task's forced_backend wins, otherwise the model decides. It also
// accumulates per-backend utilization so the runtime can report where
// the work actually went.
#ifndef PIM_RUNTIME_DISPATCHER_H
#define PIM_RUNTIME_DISPATCHER_H

#include <map>

#include "dram/organization.h"
#include "runtime/task.h"

namespace pim::runtime {

class dispatcher {
 public:
  explicit dispatcher(const dram::organization& org);

  struct routing_result {
    backend_kind where = backend_kind::host;
    core::kernel_profile profile;
    core::offload_decision decision;
  };

  /// Routes one task: to task.forced_backend when set, otherwise to
  /// the task kind's PIM backend if the offload model says so, else to
  /// the host.
  routing_result route(const pim_task& task) const;

  /// The PIM-side backend a task kind lowers to.
  static backend_kind pim_backend(task_kind kind);

  /// Synthesizes the offload model's view of a task: instruction count
  /// and DRAM traffic of the equivalent host loop.
  core::kernel_profile profile_for(const pim_task& task) const;

  // --- per-backend utilization ------------------------------------------
  struct backend_stats {
    std::uint64_t tasks = 0;
    bytes output_bytes = 0;
    picoseconds busy_ps = 0;  // sum of service times (overlap can exceed wall)
  };

  /// Records a completed task into the utilization tally.
  void account(const task_report& report);
  const std::map<backend_kind, backend_stats>& utilization() const {
    return utilization_;
  }

 private:
  dram::organization org_;
  std::map<backend_kind, backend_stats> utilization_;
};

}  // namespace pim::runtime

#endif  // PIM_RUNTIME_DISPATCHER_H
