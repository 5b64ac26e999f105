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
//
// Each message is declared once, as a struct below that names its
// opcode, its schema name, a request's success response and its fields
// in frame order; the body is those fields back to back. Adding a
// message takes one such declaration plus one net_message alternative.
// encode_frame/frame_splitter round-trip on plain byte buffers with no
// socket involved — which is how the framing tests exercise every
// message type and every malformed-input path (bad magic, oversized
// length, wrong version, a message sent the wrong way, truncated body,
// unknown opcode or enum, task report stamps that do not telescope)
// deterministically.
#ifndef PIM_NET_PROTOCOL_H
#define PIM_NET_PROTOCOL_H

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
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

// --- messages --------------------------------------------------------------
//
// A message's struct declares its whole grammar:
//   - `code`, the opcode byte its frame carries (requests below 64,
//     responses from 64);
//   - `name`, its name in the wire schema;
//   - for a request, `response`, the message that answers it on
//     success (any request may also be answered by error_resp);
//   - `fields(m, f)`, which calls `f` on every member in frame order,
//     as runtime::for_each_wire_field does for the task report.
// encode_frame, frame_splitter and verify::canonical_wire_schema() read
// nothing else. A field of a type the codec in protocol.cpp has no
// encode/decode pair for fails the build there.

/// Enums travel as one byte. The decoder refuses a byte past `last`,
/// calling it an unknown `what`; every enum a message carries declares
/// both here.
template <typename E>
struct wire_enum;
template <>
struct wire_enum<dram::bulk_op> {
  static constexpr dram::bulk_op last = dram::bulk_op::xnor_op;
  static constexpr const char* what = "bulk op";
};
template <>
struct wire_enum<runtime::task_kind> {
  static constexpr runtime::task_kind last = runtime::task_kind::host_kernel;
  static constexpr const char* what = "task kind";
};
template <>
struct wire_enum<runtime::backend_kind> {
  static constexpr runtime::backend_kind last = runtime::backend_kind::host;
  static constexpr const char* what = "backend";
};

// --- responses -------------------------------------------------------------

struct opened_resp {
  static constexpr std::uint8_t code = 64;
  static constexpr const char* name = "opened";
  service::session_id session = 0;
  std::int32_t shard = 0;
  static void fields(auto& m, auto&& f) {
    f(m.session);
    f(m.shard);
  }
};

struct closed_resp {
  static constexpr std::uint8_t code = 65;
  static constexpr const char* name = "closed";
  static void fields(auto&, auto&&) {}
};

struct vectors_resp {
  static constexpr std::uint8_t code = 66;
  static constexpr const char* name = "vectors";
  std::vector<dram::bulk_vector> vectors;
  static void fields(auto& m, auto&& f) { f(m.vectors); }
};

struct data_resp {
  static constexpr std::uint8_t code = 67;
  static constexpr const char* name = "data";
  bitvector data;
  static void fields(auto& m, auto&& f) { f(m.data); }
};

/// Completion of a submit/submit_shared/write: the task report fields
/// a remote client can act on (simulated timestamps, backend,
/// output).
struct done_resp {
  static constexpr std::uint8_t code = 68;
  static constexpr const char* name = "done";
  runtime::task_report report;
  static void fields(auto& m, auto&& f) { f(m.report); }
};

struct waited_resp {
  static constexpr std::uint8_t code = 69;
  static constexpr const char* name = "waited";
  static void fields(auto&, auto&&) {}
};

struct error_resp {
  static constexpr std::uint8_t code = 71;
  static constexpr const char* name = "error";
  std::string message;
  static void fields(auto& m, auto&& f) { f(m.message); }
};

/// Answer to get_metrics: one JSON document with "metrics" (registry
/// snapshot), "service" (service_stats::to_json of
/// pim_service::stats()) and "slow_requests" members.
struct metrics_resp {
  static constexpr std::uint8_t code = 73;
  static constexpr const char* name = "metrics_report";
  std::string json;
  static void fields(auto& m, auto&& f) { f(m.json); }
};

/// Answer to trace_ctl: buffered event count at the time of the
/// action, plus the trace JSON for a dump (empty otherwise).
struct trace_ack_resp {
  static constexpr std::uint8_t code = 74;
  static constexpr const char* name = "trace_ack";
  std::uint64_t events = 0;
  std::string json;
  static void fields(auto& m, auto&& f) {
    f(m.events);
    f(m.json);
  }
};

/// Answer to snapshot: the server's metrics registry (counters,
/// gauges, and each histogram's bucket counts) plus service-level
/// aggregates under synthetic "service.*" names: request and meter
/// counters, the service latency histogram "service.latency_ns", and
/// the top sessions by request count. Per-shard gauges ride under
/// their registry names ("service.shard.N.queue_depth", ...).
struct snapshot_resp {
  static constexpr std::uint8_t code = 76;
  static constexpr const char* name = "snapshot_report";
  obs::metrics_snapshot snap;
  static void fields(auto& m, auto&& f) { f(m.snap); }
};

// --- requests --------------------------------------------------------------

struct open_session_req {
  static constexpr std::uint8_t code = 1;
  static constexpr const char* name = "open_session";
  using response = opened_resp;
  double weight = 1.0;
  static void fields(auto& m, auto&& f) { f(m.weight); }
};

/// Connection-level bookkeeping: the server stops accepting the
/// session on this connection. (Service sessions are not destroyed —
/// their vectors may be shared cross-session.)
struct close_session_req {
  static constexpr std::uint8_t code = 2;
  static constexpr const char* name = "close_session";
  using response = closed_resp;
  service::session_id session = 0;
  static void fields(auto& m, auto&& f) { f(m.session); }
};

struct allocate_req {
  static constexpr std::uint8_t code = 3;
  static constexpr const char* name = "allocate";
  using response = vectors_resp;
  service::session_id session = 0;
  bits size = 0;
  std::int32_t count = 0;
  static void fields(auto& m, auto&& f) {
    f(m.session);
    f(m.size);
    f(m.count);
  }
};

struct write_req {
  static constexpr std::uint8_t code = 4;
  static constexpr const char* name = "write";
  using response = done_resp;
  service::session_id session = 0;
  dram::bulk_vector v;
  bitvector data;
  static void fields(auto& m, auto&& f) {
    f(m.session);
    f(m.v);
    f(m.data);
  }
};

struct read_req {
  static constexpr std::uint8_t code = 5;
  static constexpr const char* name = "read";
  using response = data_resp;
  service::session_id session = 0;
  dram::bulk_vector v;
  static void fields(auto& m, auto&& f) {
    f(m.session);
    f(m.v);
  }
};

/// One bulk Boolean op: d = op(a[, b]).
struct submit_req {
  static constexpr std::uint8_t code = 6;
  static constexpr const char* name = "submit";
  using response = done_resp;
  service::session_id session = 0;
  dram::bulk_op op = dram::bulk_op::not_op;
  dram::bulk_vector a;
  std::optional<dram::bulk_vector> b;
  dram::bulk_vector d;
  static void fields(auto& m, auto&& f) {
    f(m.session);
    f(m.op);
    f(m.a);
    f(m.b);
    f(m.d);
  }
};

/// Cross-session (possibly cross-shard) bulk op over shared vectors.
struct submit_shared_req {
  static constexpr std::uint8_t code = 7;
  static constexpr const char* name = "submit_shared";
  using response = done_resp;
  service::session_id issuer = 0;
  dram::bulk_op op = dram::bulk_op::not_op;
  service::shared_vector a;
  std::optional<service::shared_vector> b;
  service::shared_vector d;
  static void fields(auto& m, auto&& f) {
    f(m.issuer);
    f(m.op);
    f(m.a);
    f(m.b);
    f(m.d);
  }
};

/// Barrier: the response is sent once every request this connection
/// submitted before it has completed server-side.
struct wait_req {
  static constexpr std::uint8_t code = 8;
  static constexpr const char* name = "wait";
  using response = waited_resp;
  static void fields(auto&, auto&&) {}
};

/// Snapshot of the server process's obs::metrics_registry (counters,
/// gauges, histograms) plus the service's aggregate stats, as JSON.
struct get_metrics_req {
  static constexpr std::uint8_t code = 11;
  static constexpr const char* name = "get_metrics";
  using response = metrics_resp;
  static void fields(auto&, auto&&) {}
};

/// Runtime control of the server's tracer. `dump` returns the Chrome
/// trace JSON inline in the trace_ack. `path` is always empty: the
/// server writes no file a peer names, and answers a dump that names
/// one with an error.
struct trace_ctl_req {
  static constexpr std::uint8_t code = 12;
  static constexpr const char* name = "trace_ctl";
  using response = trace_ack_resp;
  enum action_kind : std::uint8_t { enable, disable, dump, clear };
  action_kind action = enable;
  std::string path;
  static void fields(auto& m, auto&& f) {
    f(m.action);
    f(m.path);
  }
};
template <>
struct wire_enum<trace_ctl_req::action_kind> {
  static constexpr trace_ctl_req::action_kind last = trace_ctl_req::clear;
  static constexpr const char* what = "trace_ctl action";
};

/// One point-in-time copy of the server's metrics, answered by
/// snapshot_resp. `slow_threshold_ns >= 0` also sets the server's
/// slow-request log threshold (-1 leaves it untouched): the runtime
/// knob for tail-based span retention.
struct snapshot_req {
  static constexpr std::uint8_t code = 14;
  static constexpr const char* name = "snapshot";
  using response = snapshot_resp;
  std::int64_t slow_threshold_ns = -1;
  static void fields(auto& m, auto&& f) { f(m.slow_threshold_ns); }
};

/// True for a request: it declares the response that answers it.
template <typename M>
inline constexpr bool is_request = requires { typename M::response; };

using net_message =
    std::variant<open_session_req, close_session_req, allocate_req, write_req,
                 read_req, submit_req, submit_shared_req, wait_req,
                 get_metrics_req, trace_ctl_req, snapshot_req, opened_resp,
                 closed_resp, vectors_resp, data_resp, done_resp, waited_resp,
                 error_resp, metrics_resp, trace_ack_resp, snapshot_resp>;

/// Calls f(std::type_identity<M>{}) for every message type M, in
/// net_message order.
template <typename F>
void for_each_message(F&& f) {
  [&f]<std::size_t... I>(std::index_sequence<I...>) {
    (f(std::type_identity<std::variant_alternative_t<I, net_message>>{}), ...);
  }(std::make_index_sequence<std::variant_size_v<net_message>>{});
}

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

/// The end of a connection a frame_splitter decodes for: requests
/// travel to the server, responses to the client.
enum class wire_side { server, client };

/// Incremental frame decoder over a byte stream. Feed whatever the
/// socket produced; next() pops complete frames one at a time,
/// returning nullopt while the buffered prefix is still incomplete
/// (trailing partial frames are not an error — more bytes may arrive)
/// and throwing protocol_error on grammar violations. A splitter
/// decodes for one side: it refuses a message that side may not
/// receive (a response sent to the server, a request sent to the
/// client) from the frame's opcode byte, before its body is buffered
/// or read, naming the message and the direction.
class frame_splitter {
 public:
  explicit frame_splitter(wire_side side) : side_(side) {}

  void feed(const std::uint8_t* data, std::size_t size);
  std::optional<net_frame> next();

  /// Request id of the last frame next() parsed far enough to read an
  /// id from — what an error frame echoes when decode fails mid-body.
  /// Zero when the failure preceded the id.
  std::uint64_t last_id() const { return last_id_; }

  /// Buffered bytes not yet consumed (tests).
  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  wire_side side_;
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
  std::uint64_t last_id_ = 0;
};

}  // namespace pim::net

#endif  // PIM_NET_PROTOCOL_H
