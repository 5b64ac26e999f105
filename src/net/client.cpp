#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

#include "common/digest.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pim::net {

remote_client::remote_client(const std::string& host, std::uint16_t port,
                             double weight) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("remote_client: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    throw std::runtime_error("remote_client: bad host " + host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    throw std::runtime_error("remote_client: connect to " + host + ":" +
                             std::to_string(port) + " failed: " +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  reader_ = std::thread([this] { reader_loop(); });
  writer_ = std::thread([this] { writer_loop(); });

  // Open the session synchronously. On failure the destructor will
  // not run, so tear the half-built connection down here.
  try {
    auto reply = std::make_shared<net_message>();
    send_request(open_session_req{weight}, reply).get();
    const auto* opened = std::get_if<opened_resp>(reply.get());
    if (opened == nullptr) {
      throw std::runtime_error("remote_client: unexpected open response");
    }
    session_ = opened->session;
    shard_ = opened->shard;
  } catch (...) {
    shutdown_threads();
    ::close(fd_);
    fd_ = -1;
    throw;
  }
}

void remote_client::shutdown_threads() {
  {
    // Give the writer a bounded window to flush what is queued, then
    // shut the socket down regardless: a peer that stopped reading
    // (writer parked inside send on a full socket buffer) must not
    // wedge the destructor, and shutdown() is what unblocks that send.
    std::unique_lock<std::mutex> lock(mu_);
    closing_ = true;
    out_cv_.notify_all();
    out_cv_.wait_for(lock, std::chrono::seconds(1),
                     [&] { return outbox_.empty() && !sending_; });
  }
  ::shutdown(fd_, SHUT_RDWR);
  if (writer_.joinable()) writer_.join();
  if (reader_.joinable()) reader_.join();
}

remote_client::~remote_client() {
  if (fd_ >= 0) {
    shutdown_threads();
    ::close(fd_);
  }
  fail_pending("client destroyed");
}

service::request_future remote_client::send_request(
    const net_message& msg, std::shared_ptr<net_message> reply) {
  auto state = std::make_shared<service::request_state>();
  service::request_future future(state);
  // Request ids come from the process-wide flow counter (never zero,
  // monotonic): when tracing, the id IS the flow id, so a loopback
  // trace stitches the client's send to the server's dispatch and the
  // shard's simulated spans.
  const std::uint64_t id = obs::new_flow();
  const bool flowing = obs::on() && carries_flow(msg);
  obs::span sp("send", "net", flowing ? id : 0);
  if (flowing) {
    state->flow = id;
    obs::emit_flow_begin(id, "request", "client");
  }
  std::vector<std::uint8_t> frame = encode_frame(id, msg);
  static std::atomic<std::uint64_t>& tx_bytes =
      obs::metrics_registry::instance().counter("net.client.tx_bytes");
  tx_bytes.fetch_add(frame.size(), std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (lost_ || closing_) {
      throw std::runtime_error("remote_client: connection lost");
    }
    pending_.emplace(id, pending_entry{state, std::move(reply)});
    outbox_.push_back(std::move(frame));
  }
  out_cv_.notify_all();
  return future;
}

void remote_client::writer_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    out_cv_.wait(lock, [&] { return closing_ || !outbox_.empty(); });
    if (outbox_.empty()) break;  // closing with nothing left to flush
    // Coalesce everything queued into one send: a pipelined submission
    // storm enqueues frames faster than a send syscall completes, so
    // the batch grows while the previous send is in flight.
    std::vector<std::uint8_t> batch = std::move(outbox_.front());
    outbox_.pop_front();
    while (!outbox_.empty()) {
      const std::vector<std::uint8_t>& next = outbox_.front();
      batch.insert(batch.end(), next.begin(), next.end());
      outbox_.pop_front();
    }
    sending_ = true;
    lock.unlock();
    const bool ok = send_all(fd_, batch);
    lock.lock();
    sending_ = false;
    if (!ok) {
      lost_ = true;
      outbox_.clear();
      lock.unlock();
      // Every request already registered would wait forever on a dead
      // socket; fail them now (responses can no longer be solicited).
      fail_pending("remote_client: connection lost on send");
      lock.lock();
    }
    if (outbox_.empty()) out_cv_.notify_all();  // teardown flush gate
    if (closing_ && outbox_.empty()) break;
  }
}

void remote_client::fail_pending(const std::string& why) {
  std::unordered_map<std::uint64_t, pending_entry> orphans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    orphans.swap(pending_);
  }
  for (auto& [id, p] : orphans) {
    (void)id;
    fail(*p.state, why);
  }
}

void remote_client::reader_loop() {
  obs::tracer::instance().name_thread("pim-net", "client reader");
  auto& rx_bytes =
      obs::metrics_registry::instance().counter("net.client.rx_bytes");
  frame_splitter splitter;
  std::vector<std::uint8_t> buf(1 << 16);
  std::string reason = "connection closed by server";
  for (;;) {
    const ssize_t n = ::recv(fd_, buf.data(), buf.size(), 0);
    if (n <= 0) break;
    rx_bytes.fetch_add(static_cast<std::uint64_t>(n),
                       std::memory_order_relaxed);
    try {
      splitter.feed(buf.data(), static_cast<std::size_t>(n));
      while (auto f = splitter.next()) {
        pending_entry entry;
        {
          std::lock_guard<std::mutex> lock(mu_);
          auto it = pending_.find(f->id);
          if (it == pending_.end()) {
            // Every frame answers one request of this client. An error
            // frame that answers none is the server's reason for
            // hanging up (a frame it could not parse); any other frame
            // means the peer does not speak this protocol.
            const auto* err = std::get_if<error_resp>(&f->msg);
            if (err != nullptr) throw std::runtime_error(err->message);
            throw protocol_error("response to unknown request " +
                                 std::to_string(f->id));
          }
          entry = std::move(it->second);
          pending_.erase(it);
        }
        if (entry.reply != nullptr) *entry.reply = f->msg;
        if (const auto* err = std::get_if<error_resp>(&f->msg)) {
          fail(*entry.state, err->message);
        } else {
          service::request_result result;
          if (auto* vecs = std::get_if<vectors_resp>(&f->msg)) {
            result.vectors = std::move(vecs->vectors);
          } else if (auto* data = std::get_if<data_resp>(&f->msg)) {
            result.data = std::move(data->data);
          } else if (const auto* done = std::get_if<done_resp>(&f->msg)) {
            result.report = done->report;
          }
          complete(*entry.state, std::move(result));
        }
      }
    } catch (const std::exception& e) {
      reason = e.what();
      break;
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    lost_ = true;
  }
  fail_pending(reason);
}

std::vector<dram::bulk_vector> remote_client::allocate(bits size, int count) {
  allocate_req req;
  req.session = session_;
  req.size = size;
  req.count = count;
  std::vector<dram::bulk_vector> vectors =
      send_request(req, nullptr).get().vectors;
  owned_.insert(owned_.end(), vectors.begin(), vectors.end());
  return vectors;
}

void remote_client::write(const dram::bulk_vector& v, const bitvector& data) {
  write_req req;
  req.session = session_;
  req.v = v;
  req.data = data;
  send_request(req, nullptr).get();
}

bitvector remote_client::read(const dram::bulk_vector& v) {
  read_req req;
  req.session = session_;
  req.v = v;
  return send_request(req, nullptr).get().data;
}

service::request_future remote_client::submit_bulk(dram::bulk_op op,
                                                   const dram::bulk_vector& a,
                                                   const dram::bulk_vector* b,
                                                   const dram::bulk_vector& d) {
  submit_req req;
  req.session = session_;
  req.op = op;
  req.a = a;
  if (b != nullptr) req.b = *b;
  req.d = d;
  service::request_future f = send_request(req, nullptr);
  futures_.push_back(f);
  return f;
}

service::request_future remote_client::submit_shared(
    dram::bulk_op op, const service::shared_vector& a,
    const service::shared_vector* b, const service::shared_vector& d) {
  submit_shared_req req;
  req.issuer = session_;
  req.op = op;
  req.a = a;
  if (b != nullptr) req.b = *b;
  req.d = d;
  service::request_future f = send_request(req, nullptr);
  futures_.push_back(f);
  return f;
}

void remote_client::wait_all() {
  // Same contract as service_client::wait_all: wait everything out,
  // then surface the first failure.
  std::vector<service::request_future> waiting = std::move(futures_);
  futures_.clear();
  std::exception_ptr first_error;
  for (const service::request_future& f : waiting) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

std::uint64_t remote_client::digest() {
  wait_all();
  std::uint64_t hash = fnv1a_basis;
  for (const dram::bulk_vector& v : owned_) {
    hash = fnv1a(hash, read(v));
  }
  return hash;
}

void remote_client::barrier() { send_request(wait_req{}, nullptr).get(); }

void remote_client::close_session() {
  send_request(close_session_req{session_}, nullptr).get();
}

std::string remote_client::metrics_json() {
  auto reply = std::make_shared<net_message>();
  send_request(get_metrics_req{}, reply).get();
  const auto* metrics = std::get_if<metrics_resp>(reply.get());
  if (metrics == nullptr) {
    throw std::runtime_error("remote_client: unexpected metrics response");
  }
  return metrics->json;
}

obs::metrics_snapshot remote_client::snapshot(std::int64_t slow_threshold_ns) {
  auto reply = std::make_shared<net_message>();
  send_request(snapshot_req{slow_threshold_ns}, reply).get();
  auto* snap = std::get_if<snapshot_resp>(reply.get());
  if (snap == nullptr) {
    throw std::runtime_error("remote_client: unexpected snapshot response");
  }
  return std::move(snap->snap);
}

std::uint64_t remote_client::trace_ctl(trace_ctl_req::action_kind action,
                                       std::string* json) {
  auto reply = std::make_shared<net_message>();
  send_request(trace_ctl_req{action, ""}, reply).get();
  const auto* ack = std::get_if<trace_ack_resp>(reply.get());
  if (ack == nullptr) {
    throw std::runtime_error("remote_client: unexpected trace_ctl response");
  }
  if (json != nullptr) *json = ack->json;
  return ack->events;
}

std::uint64_t remote_client::trace_enable() {
  return trace_ctl(trace_ctl_req::enable, nullptr);
}

std::uint64_t remote_client::trace_disable() {
  return trace_ctl(trace_ctl_req::disable, nullptr);
}

std::uint64_t remote_client::trace_clear() {
  return trace_ctl(trace_ctl_req::clear, nullptr);
}

std::uint64_t remote_client::trace_dump(std::string* json) {
  return trace_ctl(trace_ctl_req::dump, json);
}

}  // namespace pim::net
