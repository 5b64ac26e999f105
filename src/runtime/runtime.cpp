#include "runtime/runtime.h"

namespace pim::runtime {

pim_runtime::pim_runtime(dram::memory_system& mem, dram::ambit_engine& ambit,
                         dram::rowclone_engine& rowclone,
                         runtime_config config)
    : dispatcher_(mem.org()),
      sched_(mem, ambit, rowclone, config.sched) {
  sched_.set_completion_hook(
      [this](const task_report& report) { dispatcher_.account(report); });
}

task_future pim_runtime::submit(pim_task task) {
  const dispatcher::routing_result routing = dispatcher_.route(task);
  return sched_.submit(std::move(task), routing.where, routing.decision);
}

task_future pim_runtime::submit_bulk(dram::bulk_op op,
                                     const dram::bulk_vector& a,
                                     const dram::bulk_vector* b,
                                     const dram::bulk_vector& d, int stream) {
  return submit(make_bulk_task(op, a, b, d, stream));
}

runtime_stats pim_runtime::stats() const {
  runtime_stats s;
  s.sched = sched_.stats();
  s.backends = dispatcher_.utilization();
  return s;
}

}  // namespace pim::runtime
