// Wire protocol of the networked PIM service.
//
// Out-of-process clients talk to a pim_server over a stream socket
// using length-prefixed binary frames:
//
//   +-------------+--------------+---------------------------------+
//   | magic (u32) | length (u32) | payload (`length` bytes)        |
//   +-------------+--------------+---------------------------------+
//   payload: | version (u8) | request id (u64) | opcode (u8) | body |
//
// All integers are little-endian. `length` counts the payload only;
// frames above max_frame_bytes are rejected before buffering (a
// malformed peer cannot make the server allocate unbounded memory).
// The request id is chosen by the client and echoed by the matching
// response — requests are pipelined and responses complete OUT OF
// ORDER as the shards' simulated clocks advance, so the id is the only
// correlation between the two directions. Opcode values below 64 are
// requests, 64 and above are responses; an error_resp can answer any
// request.
//
// Every frame is a request or the one response to a request: the
// server never sends unasked. The message set covers the full
// client_api surface (open/close session, allocate, write, read,
// submit, submit_shared, wait) plus the telemetry and control requests
// (get_metrics, trace_ctl, snapshot). There is no handshake: a
// client's first frame is open_session, and a peer on another version
// is refused by the version byte its first frame carries.
// encode_frame/frame_splitter round-trip on plain byte buffers with no
// socket involved — which is how the framing tests exercise every
// message type and every malformed-input path (bad magic, oversized
// length, wrong version, truncated body, unknown opcode or enum, task
// report stamps that do not telescope) deterministically.
#ifndef PIM_NET_PROTOCOL_H
#define PIM_NET_PROTOCOL_H

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "obs/metrics.h"
#include "runtime/task.h"
#include "service/request.h"

namespace pim::net {

inline constexpr std::uint32_t wire_magic = 0x50494D31;  // "1MIP" on the wire
/// The one protocol version this build speaks and parses: every frame
/// carries it, and a frame stamped with any other version is a
/// protocol error, which the server answers with one error frame
/// naming both versions before it closes the connection. A done
/// frame's task report is the field list of
/// runtime::for_each_wire_field.
inline constexpr std::uint8_t wire_version = 4;
/// Upper bound on one frame's payload: comfortably above any realistic
/// bulk vector, far below anything that could exhaust server memory.
inline constexpr std::uint32_t max_frame_bytes = 1u << 26;  // 64 MiB

/// Decode-side violation of the framing or message grammar. The server
/// answers with an error frame and closes the connection; the client
/// treats it as a broken server.
struct protocol_error : std::runtime_error {
  explicit protocol_error(const std::string& what)
      : std::runtime_error("protocol error: " + what) {}
};

enum class opcode : std::uint8_t {
  // Requests.
  open_session = 1,
  close_session = 2,
  allocate = 3,
  write = 4,
  read = 5,
  submit = 6,
  submit_shared = 7,
  wait = 8,
  get_metrics = 11,
  trace_ctl = 12,
  snapshot = 14,
  // Responses.
  opened = 64,
  closed = 65,
  vectors = 66,
  data = 67,
  done = 68,
  waited = 69,
  error = 71,
  metrics_report = 73,
  trace_ack = 74,
  snapshot_report = 76,
};

// --- request bodies --------------------------------------------------------

struct open_session_req {
  double weight = 1.0;
};

/// Connection-level bookkeeping: the server stops accepting the
/// session on this connection. (Service sessions are not destroyed —
/// their vectors may be shared cross-session.)
struct close_session_req {
  service::session_id session = 0;
};

struct allocate_req {
  service::session_id session = 0;
  bits size = 0;
  std::int32_t count = 0;
};

struct write_req {
  service::session_id session = 0;
  dram::bulk_vector v;
  bitvector data;
};

struct read_req {
  service::session_id session = 0;
  dram::bulk_vector v;
};

/// One bulk Boolean op: d = op(a[, b]).
struct submit_req {
  service::session_id session = 0;
  dram::bulk_op op = dram::bulk_op::not_op;
  dram::bulk_vector a;
  std::optional<dram::bulk_vector> b;
  dram::bulk_vector d;
};

/// Cross-session (possibly cross-shard) bulk op over shared vectors.
struct submit_shared_req {
  service::session_id issuer = 0;
  dram::bulk_op op = dram::bulk_op::not_op;
  service::shared_vector a;
  std::optional<service::shared_vector> b;
  service::shared_vector d;
};

/// Barrier: the response is sent once every request this connection
/// submitted before it has completed server-side.
struct wait_req {};

/// Snapshot of the server process's obs::metrics_registry (counters,
/// gauges, histograms) plus the service's aggregate stats, as JSON.
struct get_metrics_req {};

/// Runtime control of the server's tracer. `dump` with an empty path
/// returns the Chrome trace JSON inline in the trace_ack; with a path
/// the server writes the file locally and returns only the count.
struct trace_ctl_req {
  enum : std::uint8_t { enable = 0, disable = 1, dump = 2, clear = 3 };
  std::uint8_t action = enable;
  std::string path;  // dump only; empty = return JSON inline
};

/// One point-in-time copy of the server's metrics, answered by
/// snapshot_resp. `slow_threshold_ns >= 0` also sets the server's
/// slow-request log threshold (-1 leaves it untouched): the runtime
/// knob for tail-based span retention.
struct snapshot_req {
  std::int64_t slow_threshold_ns = -1;
};

// --- response bodies -------------------------------------------------------

struct opened_resp {
  service::session_id session = 0;
  std::int32_t shard = 0;
};

struct closed_resp {};

struct vectors_resp {
  std::vector<dram::bulk_vector> vectors;
};

struct data_resp {
  bitvector data;
};

/// Completion of a submit/submit_shared/write: the task report fields
/// a remote client can act on (simulated timestamps, backend,
/// output).
struct done_resp {
  runtime::task_report report;
};

struct waited_resp {};

struct error_resp {
  std::string message;
};

/// Answer to get_metrics: one JSON document with "metrics" (registry
/// snapshot), "service" (service_stats::to_json of
/// pim_service::stats()) and "slow_requests" members.
struct metrics_resp {
  std::string json;
};

/// Answer to trace_ctl: buffered event count at the time of the
/// action, plus the trace JSON for an inline dump (empty otherwise).
struct trace_ack_resp {
  std::uint64_t events = 0;
  std::string json;
};

/// Answer to snapshot: the server's metrics registry (counters,
/// gauges, and each histogram's bucket counts) plus service-level
/// aggregates under synthetic "service.*" names: request and meter
/// counters, the service latency histogram "service.latency_ns", and
/// the top sessions by request count. Per-shard gauges ride under
/// their registry names ("service.shard.N.queue_depth", ...).
struct snapshot_resp {
  obs::metrics_snapshot snap;
};

using net_message =
    std::variant<open_session_req, close_session_req, allocate_req, write_req,
                 read_req, submit_req, submit_shared_req, wait_req,
                 get_metrics_req, trace_ctl_req, snapshot_req, opened_resp,
                 closed_resp, vectors_resp, data_resp, done_resp, waited_resp,
                 error_resp, metrics_resp, trace_ack_resp, snapshot_resp>;

/// Opcode of a message (the tag byte its frame carries).
opcode opcode_of(const net_message& msg);

/// True for the requests that run on a shard (write, read, submit,
/// submit_shared): both ends use the wire request id as their trace
/// flow id.
bool carries_flow(const net_message& msg);

/// Writes the whole buffer to a stream socket, absorbing partial
/// sends; false on a dead peer. MSG_NOSIGNAL: a closed peer surfaces
/// as an error code, not SIGPIPE.
bool send_all(int fd, const std::vector<std::uint8_t>& buf);

/// One decoded frame.
struct net_frame {
  std::uint64_t id = 0;
  net_message msg;
};

/// Serializes a complete frame (header + payload) for `msg` under
/// request id `id`.
std::vector<std::uint8_t> encode_frame(std::uint64_t id,
                                       const net_message& msg);

/// Incremental frame decoder over a byte stream. Feed whatever the
/// socket produced; next() pops complete frames one at a time,
/// returning nullopt while the buffered prefix is still incomplete
/// (trailing partial frames are not an error — more bytes may arrive)
/// and throwing protocol_error on grammar violations.
class frame_splitter {
 public:
  void feed(const std::uint8_t* data, std::size_t size);
  std::optional<net_frame> next();

  /// Request id of the last frame next() parsed far enough to read an
  /// id from — what an error frame echoes when decode fails mid-body.
  /// Zero when the failure preceded the id.
  std::uint64_t last_id() const { return last_id_; }

  /// Buffered bytes not yet consumed (tests).
  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
  std::uint64_t last_id_ = 0;
};

}  // namespace pim::net

#endif  // PIM_NET_PROTOCOL_H
