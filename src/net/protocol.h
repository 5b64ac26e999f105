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
// The message set covers the full client_api surface (open/close
// session, allocate, write, read, submit, submit_shared, wait) plus
// the telemetry and control requests (hello, get_metrics, trace_ctl,
// watch_stats).
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

#include "runtime/task.h"
#include "service/request.h"

namespace pim::net {

inline constexpr std::uint32_t wire_magic = 0x50494D31;  // "1MIP" on the wire
/// The one protocol version this build speaks and parses: every frame
/// carries it, and a frame stamped with any other version is a
/// protocol error. A done frame's task report is the field list of
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
  hello = 10,
  get_metrics = 11,
  trace_ctl = 12,
  watch_stats = 13,
  // Responses.
  opened = 64,
  closed = 65,
  vectors = 66,
  data = 67,
  done = 68,
  waited = 69,
  error = 71,
  hello_ack = 72,
  metrics_report = 73,
  trace_ack = 74,
  stats_push = 75,
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

/// Version check, sent by the client as its first frame: "the highest
/// version I speak". The server answers hello_resp with wire_version.
/// A client max below wire_version is a mismatch: the server answers
/// one error frame and closes the connection. Clients that skip the
/// exchange are framed at wire_version like everyone else.
struct hello_req {
  std::uint8_t max_version = wire_version;
};

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

/// Subscribes this connection to streaming telemetry: the server
/// pushes stats_push frames (echoing this request's id) every
/// `interval_ms` until the watch is replaced, cancelled, or the
/// connection closes. interval_ms == 0 cancels the watch; either way
/// the server answers with one immediate push (the cancel's push has
/// `last` set). `slow_threshold_ns >= 0` also sets the server's
/// slow-request log threshold (-1 leaves it untouched) — the runtime
/// knob for tail-based span retention.
struct watch_stats_req {
  std::uint32_t interval_ms = 1000;
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

/// The version the server frames at (always wire_version).
struct hello_resp {
  std::uint8_t version = wire_version;
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

/// One server-initiated telemetry frame, echoing the watch_stats
/// request id so pipelined clients demux it like any response. The
/// payload is a *delta* encoding of the metrics registry: seq 0
/// carries every counter/gauge/histogram, later pushes only entries
/// whose value changed since the previous push — the consumer folds
/// them into its cumulative view (tools/pim_top renders that view and
/// re-exposes it as OpenMetrics). Per-shard gauges ride along under
/// their registry names ("service.shard.N.queue_depth", ...), and the
/// server injects service-level aggregates (latency percentiles, top
/// sessions) as synthetic "service.*" entries.
struct stats_push_resp {
  struct hist_entry {
    std::string name;
    std::uint64_t count = 0;
    double p50 = 0, p95 = 0, p99 = 0;
  };

  std::uint64_t seq = 0;
  std::uint8_t last = 0;  // 1 = final push of a cancelled watch
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<hist_entry> hists;
};

using net_message =
    std::variant<open_session_req, close_session_req, allocate_req, write_req,
                 read_req, submit_req, submit_shared_req, wait_req, hello_req,
                 get_metrics_req, trace_ctl_req, watch_stats_req, opened_resp,
                 closed_resp, vectors_resp, data_resp, done_resp, waited_resp,
                 error_resp, hello_resp, metrics_resp, trace_ack_resp,
                 stats_push_resp>;

/// Opcode of a message (the tag byte its frame carries).
opcode opcode_of(const net_message& msg);

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
