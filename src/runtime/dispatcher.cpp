#include "runtime/dispatcher.h"

namespace pim::runtime {

dispatcher::dispatcher(const dram::organization& org) : org_(org) {}

backend_kind dispatcher::pim_backend(task_kind kind) {
  switch (kind) {
    case task_kind::bulk_bool: return backend_kind::ambit;
    case task_kind::row_copy:
    case task_kind::row_memset: return backend_kind::rowclone;
    case task_kind::host_kernel: return backend_kind::ndp_logic;
  }
  throw std::logic_error("unknown task kind");
}

core::kernel_profile dispatcher::profile_for(const pim_task& task) const {
  core::kernel_profile p;
  switch (task.kind()) {
    case task_kind::bulk_bool: {
      const auto& args = std::get<bulk_bool_args>(task.payload);
      const bytes n = args.d.size / 8;
      const std::uint64_t words = n / 8;
      const bool unary = dram::is_unary(args.op);
      // Host loop per 8 B word: loads, the Boolean op, the store.
      p.instructions = words * (unary ? 3 : 4);
      p.memory_traffic = n * (unary ? 2 : 3);
      p.host_cache_hit = 0.0;  // streaming, no reuse
      break;
    }
    case task_kind::row_copy: {
      p.instructions = org_.row_bytes() / 8 * 2;
      p.memory_traffic = org_.row_bytes() * 2;  // read src, write dst
      p.host_cache_hit = 0.0;
      break;
    }
    case task_kind::row_memset: {
      p.instructions = org_.row_bytes() / 8;
      p.memory_traffic = org_.row_bytes();
      p.host_cache_hit = 0.0;
      break;
    }
    case task_kind::host_kernel:
      p = std::get<host_kernel_args>(task.payload).profile;
      break;
  }
  return p;
}

dispatcher::routing_result dispatcher::route(const pim_task& task) const {
  routing_result r;
  r.profile = profile_for(task);
  r.decision = core::decide(r.profile);
  if (task.forced_backend) {
    r.where = *task.forced_backend;
  } else {
    r.where =
        r.decision.offload ? pim_backend(task.kind()) : backend_kind::host;
  }
  return r;
}

void dispatcher::account(const task_report& report) {
  backend_stats& s = utilization_[report.where];
  ++s.tasks;
  s.output_bytes += report.output_bytes;
  s.busy_ps += report.service_time();
}

}  // namespace pim::runtime
