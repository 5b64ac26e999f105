// remote_client: the out-of-process counterpart of service_client.
//
// Connects to a pim_server, opens one session (its first frame; a
// server on another version refuses that frame by its version byte),
// and implements
// service::client_api over the wire protocol — so any workload written
// against client_api (the examples, the synthetic fleets) runs
// unchanged over a socket. Requests are pipelined: submit_bulk/
// submit_shared return immediately with a request_future backed by the
// same request_state the in-process path uses, and a reader thread
// completes futures as response frames arrive — out of request order,
// matched by request id, mirroring how the shard workers complete
// futures in process.
//
// Sends go through a writer thread draining an outbox: a submission
// storm enqueues frames faster than one send syscall completes, so
// consecutive frames coalesce into single sends — the request-side
// half of the batched-write wire-tax cut — without changing any call's
// semantics (every frame is still sent promptly, in call order).
//
// Like service_client, one instance is driven by a single thread; many
// clients on many threads (or processes) against one server is the
// supported concurrency model.
#ifndef PIM_NET_CLIENT_H
#define PIM_NET_CLIENT_H

#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "net/protocol.h"
#include "service/client_api.h"

namespace pim::net {

class remote_client final : public service::client_api {
 public:
  /// Connects and opens a session of the given fair-share weight;
  /// throws if either fails.
  remote_client(const std::string& host, std::uint16_t port,
                double weight = 1.0);
  ~remote_client() override;

  remote_client(const remote_client&) = delete;
  remote_client& operator=(const remote_client&) = delete;

  // client_api ------------------------------------------------------------
  service::session_id id() const override { return session_; }
  /// Home shard reported at open (migration may move it later).
  int shard_index() const override { return shard_; }
  std::vector<dram::bulk_vector> allocate(bits size, int count) override;
  void write(const dram::bulk_vector& v, const bitvector& data) override;
  bitvector read(const dram::bulk_vector& v) override;
  service::request_future submit_bulk(dram::bulk_op op,
                                      const dram::bulk_vector& a,
                                      const dram::bulk_vector* b,
                                      const dram::bulk_vector& d) override;
  service::request_future submit_shared(dram::bulk_op op,
                                        const service::shared_vector& a,
                                        const service::shared_vector* b,
                                        const service::shared_vector& d)
      override;
  void wait_all() override;
  std::uint64_t digest() override;

  // wire extras -----------------------------------------------------------
  /// Server-side barrier: returns once every request this connection
  /// submitted has completed on the server (the wire `wait` op).
  void barrier();

  /// Server-process metrics snapshot (obs registry + service stats) as
  /// one JSON document (the wire `get_metrics` op).
  std::string metrics_json();

  /// Remote tracer control (the wire `trace_ctl` op). Each call
  /// returns the server's buffered event count after the action;
  /// trace_dump also returns the server's Chrome trace JSON via `json`.
  std::uint64_t trace_enable();
  std::uint64_t trace_disable();
  std::uint64_t trace_clear();
  std::uint64_t trace_dump(std::string* json = nullptr);

  /// The server's metrics at this instant (the wire `snapshot` op):
  /// registry counters, gauges and histograms plus the service
  /// aggregates named in snapshot_resp. `slow_threshold_ns >= 0` also
  /// sets the server's slow-request log threshold (-1 leaves it
  /// untouched).
  obs::metrics_snapshot snapshot(std::int64_t slow_threshold_ns = -1);

  /// Connection-level close of this client's session on the server.
  void close_session();

 private:
  struct pending_entry {
    std::shared_ptr<service::request_state> state;
    /// Raw reply for control responses (opened, metrics, trace,
    /// snapshot) that do not map onto request_result.
    std::shared_ptr<net_message> reply;
    /// Opcode of the request's declared response: the one reply,
    /// besides error_resp, the reader accepts for it.
    std::uint8_t response = 0;
  };

  /// Registers a pending id, enqueues the frame on the outbox, returns
  /// the future.
  template <typename Request>
  service::request_future send_request(const Request& req,
                                       std::shared_ptr<net_message> reply);
  std::uint64_t trace_ctl(trace_ctl_req::action_kind action,
                          std::string* json);
  void reader_loop();
  void writer_loop();
  void shutdown_threads();
  void fail_pending(const std::string& why);

  int fd_ = -1;
  service::session_id session_ = 0;
  int shard_ = -1;

  std::mutex mu_;  // pending_, outbox_, and the connection flags
  std::condition_variable out_cv_;
  std::deque<std::vector<std::uint8_t>> outbox_;
  bool closing_ = false;
  bool sending_ = false;  // writer is inside a send syscall
  /// A send failed or the reader stopped: no later request could be
  /// answered, so send_request refuses it.
  bool lost_ = false;
  std::unordered_map<std::uint64_t, pending_entry> pending_;
  std::thread reader_;
  std::thread writer_;

  std::vector<service::request_future> futures_;  // wait_all bookkeeping
  std::vector<dram::bulk_vector> owned_;          // digest bookkeeping
};

}  // namespace pim::net

#endif  // PIM_NET_CLIENT_H
