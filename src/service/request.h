// Request/response envelope of the PIM service front-end.
//
// Clients never touch a shard's pim_system directly: the simulator is
// single-threaded per shard, so every operation — vector allocation,
// host data movement, bulk-op execution — travels as a `request`
// through the shard's admission queue and is executed by the shard's
// worker thread. Completion comes back through a request_future, a
// real cross-thread future (mutex + condvar), unlike
// runtime::task_future whose simulated clock only advances on the
// owning thread.
//
// Vector handles are *virtual*: an allocation returns addresses with
// channel == -1 and a session-scoped row id, and the owning shard
// translates them to physical rows at execute time. The indirection is
// what makes vectors location-independent — a session (and all of its
// vectors) can migrate between shards while clients keep their
// handles, and cross-shard plans can name any session's vectors.
#ifndef PIM_SERVICE_REQUEST_H
#define PIM_SERVICE_REQUEST_H

#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "runtime/task.h"

namespace pim::service {

class shard;

/// Identifies one client session; doubles as the runtime stream id, so
/// per-stream scheduler weights line up with service sessions.
using session_id = std::uint64_t;

/// Thrown by shard::enqueue for a session that has been migrated away;
/// the service-level routing helpers catch it, re-resolve the owning
/// shard, and retry.
struct session_moved_error : std::runtime_error {
  session_moved_error() : std::runtime_error("session moved") {}
};

struct allocate_args {
  bits size = 0;
  int count = 0;
  /// First session-scoped virtual row id this allocation mints
  /// (assigned by the service's ownership directory).
  std::uint64_t virtual_base = 0;
};

struct write_args {
  dram::bulk_vector v;
  bitvector data;
};

struct read_args {
  dram::bulk_vector v;
  /// When set, the read models a RowClone-priced export: one PSM row
  /// copy per row drains the data onto the shard's wire rows, and the
  /// future completes — with bits captured at each copy's completion
  /// instant — only once the transfer has been paid for on the
  /// simulated clock. Plain reads apply functionally at execute time.
  bool priced = false;
  /// Write-back reservation this read may ignore: a plan fetching its
  /// own destination (in-place d = op(d, ...)) reads the pre-op value
  /// by design and must not park behind its own reservation.
  std::uint64_t token = 0;
};

struct run_task_args {
  runtime::pim_task task;
};

/// Phase two of a cross-shard plan, executed on the shard the planner
/// chose: stage every input — each one's bits fetched from its owner
/// in phase one — into a co-located scratch group (RowClone PSM
/// pricing per row), run the compute there, then hand the result to
/// the destination's owner shard as a stage_in.
struct stage_run_args {
  dram::bulk_op op = dram::bulk_op::not_op;
  bitvector a;
  std::optional<bitvector> b;
  session_id d_owner = 0;
  dram::bulk_vector d;
  /// Destination owner's shard, resolved by the planner. Valid for the
  /// plan's lifetime: the service pins every involved session against
  /// migration until the plan's guard is released.
  shard* d_shard = nullptr;
  /// The plan's reservation token (see reserve_args), cleared here if
  /// the plan fails before its write-back.
  std::uint64_t token = 0;
  /// Releases the plan's anti-migration pins when destroyed.
  std::shared_ptr<void> guard;
};

/// RowClone-priced landing of bits into a session's vector (the
/// write-back phase of a cross-shard plan, and the install path of
/// session migration): one PSM copy per row, real bits applied at each
/// copy's completion so hazard-ordered successors read them.
struct stage_in_args {
  session_id owner = 0;
  dram::bulk_vector v;
  bitvector data;
  /// The compute task's report, forwarded to the client future.
  runtime::task_report report;
  /// Non-zero for a plan write-back: the shard defers this request
  /// until the matching reservation has been placed (which guarantees
  /// the owner's earlier queued ops were executed first), then clears
  /// it as the priced copies enter the hazard graph.
  std::uint64_t token = 0;
  std::shared_ptr<void> guard;
};

/// Placed through the destination owner's session queue at a cross
/// plan's exact program position: marks the destination rows
/// "write-back pending" so requests ordered after the plan cannot
/// observe the destination before the plan's result lands, while
/// requests ordered before it proceed untouched.
struct reserve_args {
  std::uint64_t token = 0;
  dram::bulk_vector v;
};

/// Drops a reservation whose plan failed before producing a
/// write-back; deferred like stage_in until the marker exists.
struct clear_args {
  std::uint64_t token = 0;
};

/// Migration install: re-allocate a session's vector groups (group
/// granularity preserves Ambit co-location), map the virtual handles
/// to the new physical rows, and stage the captured contents in with
/// RowClone pricing. `data` is flattened in group order.
struct install_args {
  session_id session = 0;
  std::vector<std::vector<dram::bulk_vector>> groups;
  std::vector<bitvector> data;
};

/// Drops a migrated-away session's translation state on its old shard.
struct forget_args {
  session_id session = 0;
};

using request_payload =
    std::variant<allocate_args, write_args, read_args, run_task_args,
                 stage_run_args, stage_in_args, install_args, forget_args,
                 reserve_args, clear_args>;

/// What a completed request hands back; which field is meaningful
/// depends on the request kind.
struct request_result {
  std::vector<dram::bulk_vector> vectors;  // allocate
  bitvector data;                          // read
  runtime::task_report report;             // run_task / stage_run
};

/// Cross-thread completion state shared by the submitting client and
/// the shard worker.
struct request_state {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::string error;  // non-empty = request failed
  request_result result;
  /// Stamped at construction — i.e. at client submit time — so the
  /// completing shard can charge the full submit→complete latency to
  /// the session's percentile histogram.
  std::chrono::steady_clock::time_point submitted_at =
      std::chrono::steady_clock::now();
  /// Trace flow id (obs/trace.h) stitching this request's spans across
  /// client, wire, shard worker, and simulated bank lanes. Zero when
  /// tracing is off.
  std::uint64_t flow = 0;
  /// Invoked exactly once, after `done` is set (on the completing
  /// thread, outside the state lock). Must be installed before the
  /// request is submitted and never touched afterwards. The socket
  /// server hangs its response demultiplexer here: pipelined requests
  /// complete out of order, and the hook is what turns each completion
  /// into a response frame without a waiter thread per request.
  std::function<void()> on_done;
};

inline void complete(request_state& state, request_result result) {
  {
    std::lock_guard<std::mutex> lock(state.mu);
    state.result = std::move(result);
    state.done = true;
  }
  state.cv.notify_all();
  if (state.on_done) state.on_done();
}

inline void fail(request_state& state, std::string error) {
  {
    std::lock_guard<std::mutex> lock(state.mu);
    state.error = std::move(error);
    state.done = true;
  }
  state.cv.notify_all();
  if (state.on_done) state.on_done();
}

/// Client-side handle to a submitted request.
class request_future {
 public:
  request_future() = default;
  explicit request_future(std::shared_ptr<request_state> state)
      : state_(std::move(state)) {}

  bool valid() const { return state_ != nullptr; }

  bool ready() const {
    require_valid();
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->done;
  }

  /// Blocks until the shard worker completes the request; rethrows the
  /// shard-side failure as std::runtime_error.
  const request_result& get() const {
    require_valid();
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [&] { return state_->done; });
    if (!state_->error.empty()) {
      throw std::runtime_error("service request failed: " + state_->error);
    }
    return state_->result;
  }

 private:
  void require_valid() const {
    if (state_ == nullptr) {
      throw std::logic_error("request_future: empty");
    }
  }

  std::shared_ptr<request_state> state_;
};

/// One queued unit of client work.
struct request {
  session_id session = 0;
  request_payload payload;
  std::shared_ptr<request_state> completion;
};

/// A vector published for cross-session (and therefore potentially
/// cross-shard) use: the owning session plus its virtual handle.
struct shared_vector {
  session_id owner = 0;
  dram::bulk_vector v;
};

}  // namespace pim::service

#endif  // PIM_SERVICE_REQUEST_H
