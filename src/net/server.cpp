#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <deque>
#include <set>
#include <unordered_map>

#include "common/json_writer.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "runtime/task.h"

namespace pim::net {

/// Per-connection demultiplexer state. Held by shared_ptr from the
/// connection AND from every pending request's completion hook, so a
/// request completing after the connection died writes into live (if
/// unread) memory instead of a dangling pointer.
struct connection_demux {
  std::mutex mu;
  std::condition_variable cv;
  bool closing = false;

  /// Encoded frames awaiting the writer thread (responses built on the
  /// reader thread for synchronous calls, by the writer for async
  /// completions).
  std::deque<std::vector<std::uint8_t>> outgoing;

  /// Async requests submitted but not yet answered: the shared
  /// completion state (readable once `completed` names the id) and the
  /// opcode of the request's declared response (data or done).
  struct pending {
    std::shared_ptr<service::request_state> state;
    std::uint8_t reply = done_resp::code;
  };
  std::unordered_map<std::uint64_t, pending> inflight;
  /// Ids whose futures completed, in completion order — the order
  /// responses leave the socket (NOT request order: that is the
  /// pipelining).
  std::deque<std::uint64_t> completed;
  /// Parked wait barriers, answered when inflight drains to empty.
  std::vector<std::uint64_t> waiting;
};

struct pim_server::connection {
  int fd = -1;
  std::shared_ptr<connection_demux> dx = std::make_shared<connection_demux>();
  /// Sessions opened over this connection (reader-thread-only).
  std::set<service::session_id> sessions;
  std::thread reader;
  std::thread writer;
  std::atomic<bool> reader_done{false};
  std::atomic<bool> writer_done{false};

  bool finished() const { return reader_done.load() && writer_done.load(); }

  ~connection() {
    if (reader.joinable()) reader.join();
    if (writer.joinable()) writer.join();
    if (fd >= 0) ::close(fd);
  }
};

pim_server::pim_server(server_config config)
    : config_(std::move(config)), svc_(config_.service) {}

pim_server::~pim_server() { stop(); }

void pim_server::start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) throw std::runtime_error("pim_server: cannot restart");
    if (started_) return;
    started_ = true;
  }
  svc_.start();

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("pim_server: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("pim_server: bad host " + config_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    throw std::runtime_error("pim_server: bind failed: " +
                             std::string(std::strerror(errno)));
  }
  if (::listen(listen_fd_, 64) != 0) {
    throw std::runtime_error("pim_server: listen failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  acceptor_ = std::thread([this, fd = listen_fd_] { accept_loop(fd); });
}

void pim_server::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stopped_) {
      stopped_ = true;
      svc_.stop();
      return;
    }
    stopped_ = true;
  }
  // Order matters: stop accepting, wake every connection thread off
  // its socket, then stop the service — which fails outstanding
  // requests, unblocking readers parked inside blocking service calls
  // and firing the completion hooks of whatever was still in flight.
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& c : connections_) {
      {
        std::lock_guard<std::mutex> l(c->dx->mu);
        c->dx->closing = true;
      }
      c->dx->cv.notify_all();
      ::shutdown(c->fd, SHUT_RDWR);
    }
  }
  svc_.stop();
  if (acceptor_.joinable()) acceptor_.join();
  listen_fd_ = -1;  // cleared only after the acceptor is gone
  std::lock_guard<std::mutex> lock(mu_);
  connections_.clear();  // joins every connection's threads
}

void pim_server::reap_finished_locked() {
  std::erase_if(connections_,
                [](const std::unique_ptr<connection>& c) {
                  return c->finished();
                });
}

// ---------------------------------------------------------------------------
// Connection threads
// ---------------------------------------------------------------------------

namespace {

/// Encodes one response frame. A response too large to frame (a read
/// past max_frame_bytes) is answered with an error for its id instead,
/// and the connection stays open.
std::vector<std::uint8_t> encode_response(std::uint64_t id,
                                          const net_message& msg) {
  try {
    return encode_frame(id, msg);
  } catch (const protocol_error& e) {
    return encode_frame(id, error_resp{e.what()});
  }
}

void enqueue_frame(connection_demux& dx, std::uint64_t id,
                   const net_message& msg) {
  std::vector<std::uint8_t> frame = encode_response(id, msg);
  {
    std::lock_guard<std::mutex> lock(dx.mu);
    dx.outgoing.push_back(std::move(frame));
  }
  dx.cv.notify_all();
}

/// Builds the response for a completed async request from its shared
/// state (done is guaranteed set before the id reaches `completed`).
net_message build_response(connection_demux::pending& p) {
  std::lock_guard<std::mutex> lock(p.state->mu);
  if (!p.state->error.empty()) return error_resp{p.state->error};
  if (p.reply == data_resp::code) {
    return data_resp{std::move(p.state->result.data)};
  }
  return done_resp{p.state->result.report};
}

/// The snapshot request's answer: the registry snapshot plus
/// synthetic "service.*" aggregates.
obs::metrics_snapshot build_snapshot(service::pim_service& svc) {
  // stats() walks every shard's stats(), which refreshes the fast-
  // moving per-shard registry gauges — so the snapshot below is
  // current even mid-burst.
  const service::service_stats st = svc.stats();
  obs::metrics_snapshot snap = obs::metrics_registry::instance().snapshot();

  // Synthetic service-level aggregates ride along under "service.*"
  // names the registry itself never defines.
  snap.counters["service.requests_enqueued"] = st.requests_enqueued;
  snap.counters["service.requests_completed"] = st.requests_completed;
  snap.counters["service.requests_failed"] = st.requests_failed;
  snap.counters["service.output_bytes"] = st.output_bytes;
  snap.counters["service.tasks_submitted"] = st.tasks_submitted;
  for (const service::sched_meter& m : service::sched_meters) {
    snap.counters[std::string("service.") + m.name] =
        service::shown_value(m, st.*m.total);
  }
  snap.counters["service.slow_requests_observed"] =
      obs::slow_request_log::instance().observed();
  snap.gauges["service.sessions"] = st.sessions;
  snap.gauges["service.makespan_ps"] = st.makespan_ps;
  snap.gauges["service.avg_busy_banks_x1000"] =
      static_cast<std::int64_t>(st.avg_busy_banks() * 1000.0);

  // Top sessions by completed requests (latency sample count): the
  // "who is hot" panel. Fixed at 5 slots so slot names are stable.
  std::vector<std::pair<service::session_id, const service::latency_histogram*>>
      top;
  top.reserve(st.session_latency.size());
  for (const auto& [sid, h] : st.session_latency) top.emplace_back(sid, &h);
  std::sort(top.begin(), top.end(), [](const auto& a, const auto& b) {
    if (a.second->count() != b.second->count()) {
      return a.second->count() > b.second->count();
    }
    return a.first < b.first;
  });
  for (std::size_t k = 0; k < top.size() && k < 5; ++k) {
    const std::string slot = "service.top." + std::to_string(k);
    snap.gauges[slot + ".session"] =
        static_cast<std::int64_t>(top[k].first);
    snap.gauges[slot + ".requests"] =
        static_cast<std::int64_t>(top[k].second->count());
    snap.gauges[slot + ".p99_ns"] =
        static_cast<std::int64_t>(top[k].second->percentile(0.99));
  }
  snap.histograms["service.latency_ns"] = st.latency;
  return snap;
}

void writer_loop(int fd, std::shared_ptr<connection_demux> dx) {
  obs::tracer::instance().name_thread("pim-net", "server writer");
  auto& tx_bytes =
      obs::metrics_registry::instance().counter("net.server.tx_bytes");

  std::unique_lock<std::mutex> lock(dx->mu);
  for (;;) {
    dx->cv.wait(lock, [&] {
      return dx->closing || !dx->outgoing.empty() || !dx->completed.empty();
    });
    // Turn completions into response frames, in completion order.
    while (!dx->completed.empty()) {
      const std::uint64_t id = dx->completed.front();
      dx->completed.pop_front();
      auto it = dx->inflight.find(id);
      if (it == dx->inflight.end()) continue;  // answered by an error path
      connection_demux::pending p = std::move(it->second);
      dx->inflight.erase(it);
      lock.unlock();
      std::vector<std::uint8_t> frame =
          encode_response(id, build_response(p));
      lock.lock();
      dx->outgoing.push_back(std::move(frame));
    }
    // A drained pipeline releases parked wait barriers.
    if (dx->inflight.empty() && !dx->waiting.empty()) {
      for (const std::uint64_t id : dx->waiting) {
        dx->outgoing.push_back(encode_frame(id, waited_resp{}));
      }
      dx->waiting.clear();
    }
    // Coalesce everything queued into one send: under a pipelined
    // client, dozens of small response frames pile up while the
    // previous send syscall is in flight, and batching them cuts the
    // per-frame syscall tax off the wire path.
    while (!dx->outgoing.empty()) {
      std::vector<std::uint8_t> batch = std::move(dx->outgoing.front());
      dx->outgoing.pop_front();
      while (!dx->outgoing.empty()) {
        const std::vector<std::uint8_t>& next = dx->outgoing.front();
        batch.insert(batch.end(), next.begin(), next.end());
        dx->outgoing.pop_front();
      }
      lock.unlock();
      const bool ok = send_all(fd, batch);
      if (ok) tx_bytes.fetch_add(batch.size(), std::memory_order_relaxed);
      lock.lock();
      if (!ok) {
        dx->closing = true;
        dx->outgoing.clear();
        break;
      }
    }
    if (dx->closing && dx->outgoing.empty() && dx->completed.empty()) break;
  }
}

}  // namespace

void pim_server::accept_loop(const int listen_fd) {
  for (;;) {
    sockaddr_in peer{};
    socklen_t len = sizeof(peer);
    const int fd =
        ::accept(listen_fd, reinterpret_cast<sockaddr*>(&peer), &len);
    if (fd < 0) return;  // listen socket closed: server stopping
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto conn = std::make_unique<connection>();
    conn->fd = fd;
    connection* c = conn.get();
    c->writer = std::thread([fd, dx = c->dx, c] {
      writer_loop(fd, dx);
      // A dead writer (peer stopped reading, or protocol error already
      // flushed) means the connection is over: wake the reader off its
      // blocking recv too.
      ::shutdown(fd, SHUT_RDWR);
      c->writer_done.store(true);
    });
    c->reader = std::thread([this, fd, c] {
      auto dx = c->dx;

      // Dispatch helpers. Asynchronous requests (write/read/submit/
      // submit_shared) register their completion state under the
      // request id BEFORE submitting: the completion hook may fire on
      // the shard worker before the submitting call even returns.
      auto submit_async =
          [&](std::uint64_t id, std::uint8_t reply, auto&& do_submit) {
            auto state = std::make_shared<service::request_state>();
            // Flow id = wire request id: the client minted it from the
            // same flow counter, so loopback traces stitch both halves.
            if (obs::on()) state->flow = id;
            state->on_done = [dx, id] {
              {
                std::lock_guard<std::mutex> l(dx->mu);
                dx->completed.push_back(id);
              }
              dx->cv.notify_all();
            };
            {
              std::lock_guard<std::mutex> l(dx->mu);
              dx->inflight.emplace(
                  id, connection_demux::pending{state, reply});
            }
            try {
              do_submit(state);
            } catch (const std::exception& e) {
              {
                std::lock_guard<std::mutex> l(dx->mu);
                dx->inflight.erase(id);
              }
              enqueue_frame(*dx, id, error_resp{e.what()});
            }
          };

      auto require_session = [&](service::session_id s) {
        if (c->sessions.count(s) == 0) {
          throw std::invalid_argument(
              "session not opened on this connection");
        }
      };

      auto dispatch = [&](net_frame& f) {
        const std::uint64_t id = f.id;
        // The wire request id doubles as the flow id for async
        // requests (both sides mint from obs::new_flow()); non-flow
        // requests just get a labeled span.
        const bool flowing = obs::on() && carries_flow(f.msg);
        obs::span sp("dispatch", "net", flowing ? id : 0);
        if (flowing) obs::emit_flow_step(id, "request", "net");
        try {
          std::visit(
              [&](auto& m) {
                using T = std::decay_t<decltype(m)>;
                if constexpr (std::is_same_v<T, open_session_req>) {
                  const service::session_info si = svc_.open_session(m.weight);
                  c->sessions.insert(si.id);
                  enqueue_frame(*dx, id, opened_resp{si.id, si.shard});
                } else if constexpr (std::is_same_v<T, close_session_req>) {
                  require_session(m.session);
                  c->sessions.erase(m.session);
                  enqueue_frame(*dx, id, closed_resp{});
                } else if constexpr (std::is_same_v<T, allocate_req>) {
                  require_session(m.session);
                  vectors_resp resp;
                  resp.vectors = svc_.allocate(m.session, m.size, m.count);
                  enqueue_frame(*dx, id, std::move(resp));
                } else if constexpr (std::is_same_v<T, write_req>) {
                  require_session(m.session);
                  submit_async(id, T::response::code, [&](auto state) {
                    service::request r;
                    r.session = m.session;
                    r.completion = std::move(state);
                    r.payload = service::write_args{std::move(m.v),
                                                    std::move(m.data)};
                    svc_.submit(std::move(r));
                  });
                } else if constexpr (std::is_same_v<T, read_req>) {
                  require_session(m.session);
                  submit_async(id, T::response::code, [&](auto state) {
                    service::request r;
                    r.session = m.session;
                    r.completion = std::move(state);
                    r.payload = service::read_args{std::move(m.v)};
                    svc_.submit(std::move(r));
                  });
                } else if constexpr (std::is_same_v<T, submit_req>) {
                  require_session(m.session);
                  submit_async(id, T::response::code, [&](auto state) {
                    service::request r;
                    r.session = m.session;
                    r.completion = std::move(state);
                    r.payload = service::run_task_args{runtime::make_bulk_task(
                        m.op, m.a, m.b ? &*m.b : nullptr, m.d)};
                    svc_.submit(std::move(r));
                  });
                } else if constexpr (std::is_same_v<T, submit_shared_req>) {
                  require_session(m.issuer);
                  submit_async(id, T::response::code, [&](auto state) {
                    // Blocks this connection's reader for the fetch
                    // phase of a cross-shard plan — per-connection
                    // head-of-line blocking, matching the in-process
                    // client's submit_shared semantics.
                    svc_.submit_cross(m.issuer, m.op, m.a,
                                      m.b ? &*m.b : nullptr, m.d,
                                      std::move(state));
                  });
                } else if constexpr (std::is_same_v<T, wait_req>) {
                  bool drained = false;
                  {
                    std::lock_guard<std::mutex> l(dx->mu);
                    if (dx->inflight.empty() && dx->completed.empty()) {
                      drained = true;
                    } else {
                      dx->waiting.push_back(id);
                    }
                  }
                  if (drained) enqueue_frame(*dx, id, waited_resp{});
                } else if constexpr (std::is_same_v<T, get_metrics_req>) {
                  json_writer json;
                  json.begin_object();
                  json.key("metrics").begin_object();
                  obs::metrics_registry::instance().to_json(json);
                  json.end_object();
                  json.key("service").begin_object();
                  svc_.stats().to_json(json);
                  json.end_object();
                  json.key("slow_requests").begin_object();
                  obs::slow_request_log::instance().to_json(json);
                  json.end_object();
                  json.end_object();
                  enqueue_frame(*dx, id, metrics_resp{json.str()});
                } else if constexpr (std::is_same_v<T, snapshot_req>) {
                  if (m.slow_threshold_ns >= 0) {
                    obs::slow_request_log::instance().set_threshold_ns(
                        m.slow_threshold_ns);
                  }
                  enqueue_frame(*dx, id, snapshot_resp{build_snapshot(svc_)});
                } else if constexpr (std::is_same_v<T, trace_ctl_req>) {
                  obs::tracer& t = obs::tracer::instance();
                  trace_ack_resp resp;
                  switch (m.action) {
                    case trace_ctl_req::enable:
                      t.enable();
                      break;
                    case trace_ctl_req::disable:
                      t.disable();
                      break;
                    case trace_ctl_req::dump:
                      // The trace goes back inline: a peer never
                      // names a file for the server to write.
                      if (!m.path.empty()) {
                        throw std::invalid_argument(
                            "trace_ctl: the server writes no trace file; "
                            "dump with an empty path");
                      }
                      resp.json = t.chrome_json();
                      break;
                    case trace_ctl_req::clear:
                      t.clear();
                      break;
                  }
                  resp.events = t.event_count();
                  enqueue_frame(*dx, id, std::move(resp));
                } else {
                  // A response opcode arriving at the server is a
                  // protocol violation, not a failed request.
                  throw protocol_error("response opcode sent to server");
                }
              },
              f.msg);
        } catch (const protocol_error&) {
          throw;  // close the connection
        } catch (const std::exception& e) {
          // Per-request failure (unknown session, exhausted allocator,
          // stopped service): answer it, keep the connection.
          enqueue_frame(*dx, id, error_resp{e.what()});
        }
      };

      obs::tracer::instance().name_thread("pim-net", "server reader");
      auto& rx_bytes =
          obs::metrics_registry::instance().counter("net.server.rx_bytes");
      auto& rx_frames =
          obs::metrics_registry::instance().counter("net.server.rx_frames");
      frame_splitter splitter;
      std::vector<std::uint8_t> buf(1 << 16);
      for (;;) {
        const ssize_t n = ::recv(fd, buf.data(), buf.size(), 0);
        if (n <= 0) break;
        rx_bytes.fetch_add(static_cast<std::uint64_t>(n),
                           std::memory_order_relaxed);
        bool fatal = false;
        try {
          splitter.feed(buf.data(), static_cast<std::size_t>(n));
          while (auto f = splitter.next()) {
            rx_frames.fetch_add(1, std::memory_order_relaxed);
            dispatch(*f);
          }
        } catch (const protocol_error& e) {
          // Malformed input: one error frame, then hang up. The id is
          // best-effort (a frame broken before its id echoes 0).
          enqueue_frame(*dx, splitter.last_id(), error_resp{e.what()});
          fatal = true;
        }
        if (fatal) break;
      }
      {
        std::lock_guard<std::mutex> l(dx->mu);
        dx->closing = true;
      }
      dx->cv.notify_all();
      c->reader_done.store(true);
    });

    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) {
      // Raced with stop(): tear the fresh connection down the same way.
      {
        std::lock_guard<std::mutex> l(c->dx->mu);
        c->dx->closing = true;
      }
      c->dx->cv.notify_all();
      ::shutdown(c->fd, SHUT_RDWR);
    }
    connections_.push_back(std::move(conn));
    reap_finished_locked();
  }
}

}  // namespace pim::net
