// pim_task: the unit of work accepted by the asynchronous PIM runtime.
//
// A task is one bulk Boolean op, one RowClone copy/initialization, or a
// host-kernel fallback described by its kernel_profile. Tasks carry a
// stream id (the tenant that issued them) and an optional forced
// backend; the dispatcher otherwise routes them with the offload model.
// Submission returns a task_future; completion produces a task_report
// with submit/start/complete timestamps on the simulated clock and the
// dispatch decision that was taken.
#ifndef PIM_RUNTIME_TASK_H
#define PIM_RUNTIME_TASK_H

#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <variant>

#include "common/types.h"
#include "core/offload.h"
#include "dram/ambit.h"

namespace pim::runtime {

using task_id = std::uint64_t;

/// What a task asks for. Order matches the payload variant below.
enum class task_kind { bulk_bool, row_copy, row_memset, host_kernel };

/// Where a task can execute. `ambit`/`rowclone` are the in-DRAM
/// engines, `ndp_logic` models cores in the logic layer of a stack,
/// `host` is the CPU fallback.
enum class backend_kind { ambit, rowclone, ndp_logic, host };

std::string to_string(backend_kind backend);

/// d = op(a[, b]); b is meaningful only for binary ops.
struct bulk_bool_args {
  dram::bulk_op op = dram::bulk_op::not_op;
  dram::bulk_vector a;
  std::optional<dram::bulk_vector> b;
  dram::bulk_vector d;
};

struct row_copy_args {
  dram::address src;
  dram::address dst;
  bool same_subarray = true;  // FPM when true, PSM otherwise
};

struct row_memset_args {
  dram::address dst;
  bool ones = false;
};

/// A kernel the runtime cannot lower to in-DRAM ops; it runs on the
/// host or on the stack's logic-layer cores per the offload decision.
struct host_kernel_args {
  core::kernel_profile profile;
};

using task_payload = std::variant<bulk_bool_args, row_copy_args,
                                  row_memset_args, host_kernel_args>;

struct task_report;

struct pim_task {
  task_payload payload;
  /// Bypass the dispatcher's offload decision when set.
  std::optional<backend_kind> forced_backend;
  /// Tenant stream this task belongs to (workload driver bookkeeping).
  int stream = 0;
  /// Trace flow id stitching this task to the client request that
  /// spawned it (obs/trace.h). Zero when tracing is off or the task
  /// is service-internal.
  std::uint64_t flow = 0;
  /// Simulated instant the owning request entered the shard's
  /// admission queue, when known (the service stamps it from the
  /// shard's published sim clock at enqueue). Zero = not queued /
  /// unknown; the scheduler clamps it to submit_ps, so the admission
  /// segment is zero unless a real queue wait was observed.
  picoseconds admit_ps = 0;
  /// Marks a task whose execution time is wire time for wait-state
  /// attribution: PSM bank-to-bank transfers (cross-shard staging and
  /// export) rather than in-place compute.
  bool wire_hop = false;
  /// Invoked exactly once, on the submitting thread, at the simulated
  /// instant the task completes — after its functional result has been
  /// applied to the row store and before any hazard-dependent task is
  /// released. The service layer hangs transfer payloads here: a
  /// RowClone-priced staging copy deposits the real bits of its row in
  /// this callback, so later tasks ordered behind it by the row-hazard
  /// graph always observe the staged contents.
  std::function<void(const task_report&)> on_complete;

  task_kind kind() const { return static_cast<task_kind>(payload.index()); }
};

/// Builds a bulk Boolean op task: d = op(a[, b]); b is null for unary
/// ops. The one construction path shared by the runtime's submit_bulk,
/// the synchronous pim_system wrapper, and the workload driver.
pim_task make_bulk_task(dram::bulk_op op, const dram::bulk_vector& a,
                        const dram::bulk_vector* b,
                        const dram::bulk_vector& d, int stream = 0);

/// Completion record for one task.
struct task_report {
  task_id id = 0;
  int stream = 0;
  task_kind kind = task_kind::bulk_bool;
  backend_kind where = backend_kind::ambit;
  core::offload_decision decision;  // what the dispatcher computed

  picoseconds admit_ps = 0;     // entered the shard's admission queue
  picoseconds submit_ps = 0;    // runtime accepted the task
  picoseconds release_ps = 0;   // row hazards cleared
  picoseconds start_ps = 0;     // executor/engine slot held, work began
  picoseconds complete_ps = 0;  // results visible
  bytes output_bytes = 0;

  /// Wait-state attribution (obs/critpath.h). The five timestamps
  /// telescope — admit <= submit <= release <= start <= complete — so
  /// the typed segments partition the task's lifetime exactly:
  ///   admission_queued = submit - admit    (shard admission queue)
  ///   hazard_blocked   = release - submit  (row-hazard DAG wait)
  ///   bank_busy        = start - release   (executor-slot wait; zero
  ///                                         for Ambit/RowClone tasks,
  ///                                         which issue at release)
  ///   executing|wire   = complete - start  (wire when wire_hop)
  /// `blocked_on` is the task whose completion released this one (the
  /// last hazard to clear; 0 = never blocked) and `blocked_row` the
  /// row key that carried that hazard — together they are the edges
  /// the critical-path analyzer walks.
  task_id blocked_on = 0;
  std::uint64_t blocked_row = 0;
  bool wire_hop = false;

  /// The (channel, bank) lane the task's output landed on — the same
  /// lane the tracer draws the task's sim span on. Host/NDP work has
  /// no DRAM destination and reports (-1, -1). The tick-attribution
  /// profiler (obs/profile.h) folds these into the per-lane cost
  /// split, so lane attribution survives the wire round-trip without
  /// needing a trace file.
  int channel = -1;
  int bank = -1;

  /// Modeled energy this task was charged at completion (obs/energy.h),
  /// in integer femtojoules so downstream sums partition exactly, plus
  /// the data-moved ledger split by interface. Zero when metering is
  /// disabled.
  std::uint64_t energy_fj = 0;
  bytes insitu_bytes = 0;   // moved inside the memory die / stack
  bytes offchip_bytes = 0;  // moved across the DDR pins
  bytes wire_bytes = 0;     // moved bank-to-bank (PSM transfers)

  /// The lifetime split into its typed segments (the partition in the
  /// comment above). The parts sum to complete_ps - admit_ps.
  struct segments {
    picoseconds admission = 0;
    picoseconds hazard = 0;
    picoseconds bank = 0;
    picoseconds exec = 0;  // zero for a wire hop
    picoseconds wire = 0;  // zero unless wire_hop
  };
  segments lifetime() const {
    const picoseconds run = complete_ps - start_ps;
    return {submit_ps - admit_ps, release_ps - submit_ps,
            start_ps - release_ps, wire_hop ? 0 : run, wire_hop ? run : 0};
  }

  /// True when the stamps telescope: admit <= submit <= release <=
  /// start <= complete. Every report the scheduler completes does.
  bool telescopes() const {
    return admit_ps <= submit_ps && submit_ps <= release_ps &&
           release_ps <= start_ps && start_ps <= complete_ps;
  }

  picoseconds latency() const { return complete_ps - submit_ps; }
  picoseconds service_time() const { return complete_ps - start_ps; }

  /// Output bytes per wall-clock. Guarded: a zero-latency task (e.g. an
  /// empty host kernel completing in the submission tick) reports 0
  /// rather than dividing by zero.
  double throughput_gbps() const {
    return gigabytes_per_second(output_bytes, latency());
  }
};

/// The report's wire grammar (net/protocol.h), declared once: calls
/// `field` on every member a done frame carries, in frame order. The
/// encoder and the decoder both walk this list, so they cannot drift.
/// Enums and bool travel as one byte, int as four, the rest as eight.
template <typename Report, typename Field>
void for_each_wire_field(Report& r, Field&& field) {
  field(r.id);
  field(r.stream);
  field(r.kind);
  field(r.where);
  field(r.submit_ps);
  field(r.start_ps);
  field(r.complete_ps);
  field(r.output_bytes);
  field(r.channel);
  field(r.bank);
  field(r.energy_fj);
  field(r.insitu_bytes);
  field(r.offchip_bytes);
  field(r.wire_bytes);
  field(r.admit_ps);
  field(r.release_ps);
  field(r.blocked_on);
  field(r.blocked_row);
  field(r.wire_hop);
}

/// Handle to a submitted task. Poll with ready(); block with
/// scheduler::wait / pim_runtime::wait (which advance simulated time).
class task_future {
 public:
  task_future() = default;

  bool valid() const { return state_ != nullptr; }
  bool ready() const { return state_ != nullptr && state_->done; }
  task_id id() const {
    require_valid();
    return state_->report.id;
  }

  /// The completion report; throws if the task has not completed.
  const task_report& report() const {
    require_valid();
    if (!state_->done) {
      throw std::logic_error("task_future: task has not completed");
    }
    return state_->report;
  }

 private:
  friend class scheduler;
  struct shared_state {
    bool done = false;
    task_report report;
  };
  explicit task_future(std::shared_ptr<shared_state> state)
      : state_(std::move(state)) {}
  void require_valid() const {
    if (state_ == nullptr) throw std::logic_error("task_future: empty");
  }

  std::shared_ptr<shared_state> state_;
};

}  // namespace pim::runtime

#endif  // PIM_RUNTIME_TASK_H
