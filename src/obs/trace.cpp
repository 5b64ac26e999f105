#include "obs/trace.h"

#include <chrono>
#include <fstream>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "common/json_writer.h"

namespace pim::obs {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

tracer::tracer() : epoch_ns_(steady_ns()) {}

tracer& tracer::instance() {
  static tracer t;
  return t;
}

std::int64_t tracer::now_host_ns() const { return steady_ns() - epoch_ns_; }

std::uint32_t tracer::register_track(int pid, int tid, std::string process,
                                     std::string thread, clock_domain domain) {
  std::lock_guard<std::mutex> lock(mu_);
  track_info info;
  info.id = static_cast<std::uint32_t>(tracks_.size());
  info.pid = pid;
  info.tid = tid;
  info.process = std::move(process);
  info.thread = std::move(thread);
  info.domain = domain;
  tracks_.push_back(info);
  return info.id;
}

int tracer::alloc_sim_pid() {
  return next_sim_pid_.fetch_add(1, std::memory_order_relaxed);
}

tracer::thread_buffer& tracer::local_buffer() {
  thread_local std::shared_ptr<thread_buffer> buf;
  if (!buf) {
    buf = std::make_shared<thread_buffer>();
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(buf);
  }
  return *buf;
}

std::uint32_t tracer::thread_track() {
  // Each thread registers itself once; host tracks all live under
  // pid 1 with a process-unique tid.
  thread_local std::uint32_t track = UINT32_MAX;
  thread_local const tracer* owner = nullptr;
  if (owner != this) {  // fresh thread (or tests rebuilt the tracer)
    int tid;
    {
      std::lock_guard<std::mutex> lock(mu_);
      tid = static_cast<int>(next_tid_++);
    }
    track = register_track(1, tid, "host", "thread " + std::to_string(tid),
                           clock_domain::host);
    owner = this;
  }
  return track;
}

void tracer::name_thread(const std::string& process,
                         const std::string& thread) {
  const std::uint32_t id = thread_track();
  std::lock_guard<std::mutex> lock(mu_);
  tracks_[id].process = process;
  tracks_[id].thread = thread;
}

void tracer::record(const trace_event& e) {
  thread_buffer& buf = local_buffer();
  std::lock_guard<std::mutex> lock(buf.mu);
  if (buf.events.size() >= max_events_per_thread) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buf.events.push_back(e);
}

std::vector<trace_event> tracer::snapshot() const {
  std::vector<std::shared_ptr<thread_buffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    buffers = buffers_;
  }
  std::vector<trace_event> out;
  for (const auto& buf : buffers) {
    std::lock_guard<std::mutex> lock(buf->mu);
    out.insert(out.end(), buf->events.begin(), buf->events.end());
  }
  return out;
}

std::vector<track_info> tracer::tracks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tracks_;
}

std::size_t tracer::event_count() const {
  std::vector<std::shared_ptr<thread_buffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    buffers = buffers_;
  }
  std::size_t n = 0;
  for (const auto& buf : buffers) {
    std::lock_guard<std::mutex> lock(buf->mu);
    n += buf->events.size();
  }
  return n;
}

void tracer::clear() {
  std::vector<std::shared_ptr<thread_buffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    buffers = buffers_;
  }
  for (const auto& buf : buffers) {
    std::lock_guard<std::mutex> lock(buf->mu);
    buf->events.clear();
  }
  dropped_.store(0, std::memory_order_relaxed);
}

namespace {

/// Exported timestamp in microseconds: the trace_event JSON unit.
/// Host events carry nanoseconds, simulated events picoseconds.
double ts_us(const track_info& t, std::int64_t ts) {
  return t.domain == clock_domain::host ? static_cast<double>(ts) / 1e3
                                        : static_cast<double>(ts) / 1e6;
}

const char* phase_of(event_kind k) {
  switch (k) {
    case event_kind::begin: return "B";
    case event_kind::end: return "E";
    case event_kind::complete: return "X";
    case event_kind::instant: return "i";
    case event_kind::counter: return "C";
    case event_kind::flow_begin: return "s";
    case event_kind::flow_step: return "t";
    case event_kind::flow_end: return "f";
  }
  return "i";
}

}  // namespace

std::string tracer::chrome_json() const {
  const std::vector<track_info> tracks = this->tracks();
  const std::vector<trace_event> events = snapshot();

  json_writer json;
  json.begin_object();
  json.key("displayTimeUnit").value("ms");
  json.key("traceEvents").begin_array();

  // Metadata: name every process once (last registration wins) and
  // every (pid, tid) lane.
  std::map<int, std::string> process_names;
  for (const track_info& t : tracks) process_names[t.pid] = t.process;
  for (const auto& [pid, name] : process_names) {
    json.begin_object();
    json.key("ph").value("M");
    json.key("name").value("process_name");
    json.key("pid").value(pid);
    json.key("tid").value(0);
    json.key("args").begin_object();
    json.key("name").value(name);
    json.end_object();
    json.end_object();
  }
  for (const track_info& t : tracks) {
    json.begin_object();
    json.key("ph").value("M");
    json.key("name").value("thread_name");
    json.key("pid").value(t.pid);
    json.key("tid").value(t.tid);
    json.key("args").begin_object();
    json.key("name").value(t.thread);
    json.end_object();
    json.end_object();
  }

  for (const trace_event& e : events) {
    if (e.track >= tracks.size()) continue;  // registered after snapshot
    const track_info& t = tracks[e.track];
    json.begin_object();
    json.key("ph").value(phase_of(e.kind));
    json.key("pid").value(t.pid);
    json.key("tid").value(t.tid);
    json.key("ts").value(ts_us(t, e.ts));
    if (e.name != nullptr) json.key("name").value(e.name);
    if (e.cat != nullptr) json.key("cat").value(e.cat);
    switch (e.kind) {
      case event_kind::complete:
        json.key("dur").value(ts_us(t, e.dur));
        break;
      case event_kind::instant:
        json.key("s").value("t");  // thread-scoped instant
        break;
      case event_kind::flow_begin:
      case event_kind::flow_step:
      case event_kind::flow_end:
        json.key("id").value(std::to_string(e.flow));
        if (e.kind == event_kind::flow_end) {
          json.key("bp").value("e");  // bind to the enclosing slice
        }
        break;
      default:
        break;
    }
    const bool has_flow_arg =
        e.flow != 0 && e.kind != event_kind::flow_begin &&
        e.kind != event_kind::flow_step && e.kind != event_kind::flow_end;
    if (e.arg_name != nullptr || has_flow_arg ||
        e.kind == event_kind::counter) {
      json.key("args").begin_object();
      if (e.kind == event_kind::counter) {
        json.key(e.name != nullptr ? e.name : "value").value(e.arg);
      } else if (e.arg_name != nullptr) {
        json.key(e.arg_name).value(e.arg);
      }
      if (has_flow_arg) json.key("flow").value(e.flow);
      json.end_object();
    }
    json.end_object();
  }

  json.end_array();
  json.end_object();
  return json.str();
}

void tracer::write_chrome_json(const std::string& path) const {
  const std::string doc = chrome_json();
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("tracer: cannot write " + path);
  out << doc;
  if (!out.good()) throw std::runtime_error("tracer: write failed: " + path);
}

// --- recording helpers -----------------------------------------------------

void emit_instant(const char* name, const char* cat, std::uint64_t flow) {
  tracer& t = tracer::instance();
  if (!t.enabled()) return;
  trace_event e;
  e.kind = event_kind::instant;
  e.track = t.thread_track();
  e.name = name;
  e.cat = cat;
  e.ts = t.now_host_ns();
  e.flow = flow;
  t.record(e);
}

namespace {

void emit_flow(event_kind kind, std::uint64_t flow, const char* name,
               const char* cat) {
  tracer& t = tracer::instance();
  if (!t.enabled()) return;
  trace_event e;
  e.kind = kind;
  e.track = t.thread_track();
  e.name = name;
  e.cat = cat;
  e.ts = t.now_host_ns();
  e.flow = flow;
  t.record(e);
}

}  // namespace

void emit_flow_begin(std::uint64_t flow, const char* name, const char* cat) {
  emit_flow(event_kind::flow_begin, flow, name, cat);
}

void emit_flow_step(std::uint64_t flow, const char* name, const char* cat) {
  emit_flow(event_kind::flow_step, flow, name, cat);
}

void emit_flow_end(std::uint64_t flow, const char* name, const char* cat) {
  emit_flow(event_kind::flow_end, flow, name, cat);
}

void emit_complete(std::uint32_t track, const char* name, const char* cat,
                   std::int64_t ts, std::int64_t dur, std::uint64_t flow,
                   const char* arg_name, std::int64_t arg) {
  tracer& t = tracer::instance();
  if (!t.enabled()) return;
  trace_event e;
  e.kind = event_kind::complete;
  e.track = track;
  e.name = name;
  e.cat = cat;
  e.ts = ts;
  e.dur = dur;
  e.flow = flow;
  e.arg_name = arg_name;
  e.arg = arg;
  t.record(e);
}

void span::begin(const char* name, const char* cat, std::uint64_t flow,
                 const char* arg_name, std::int64_t arg) {
  tracer& t = tracer::instance();
  trace_event e;
  e.kind = event_kind::begin;
  e.track = t.thread_track();
  e.name = name;
  e.cat = cat;
  e.ts = t.now_host_ns();
  e.flow = flow;
  e.arg_name = arg_name;
  e.arg = arg;
  t.record(e);
}

void span::end() {
  tracer& t = tracer::instance();
  trace_event e;
  e.kind = event_kind::end;
  e.track = t.thread_track();
  e.ts = t.now_host_ns();
  t.record(e);
}

std::string validate(const std::vector<trace_event>& events) {
  // Begin/end discipline per track. Events of one track are recorded
  // by a single thread, so drain order is record order.
  std::unordered_map<std::uint32_t, int> depth;
  std::unordered_set<std::uint64_t> flows;
  for (const trace_event& e : events) {
    if (e.kind == event_kind::flow_begin) flows.insert(e.flow);
  }
  for (const trace_event& e : events) {
    switch (e.kind) {
      case event_kind::begin:
        ++depth[e.track];
        break;
      case event_kind::end:
        if (--depth[e.track] < 0) {
          return "end without begin on track " + std::to_string(e.track);
        }
        break;
      case event_kind::complete:
        if (e.dur < 0) {
          return std::string("negative duration in span ") +
                 (e.name != nullptr ? e.name : "?");
        }
        break;
      case event_kind::flow_step:
      case event_kind::flow_end:
        if (flows.count(e.flow) == 0) {
          return "flow " + std::to_string(e.flow) + " has no begin";
        }
        break;
      default:
        break;
    }
  }
  for (const auto& [track, d] : depth) {
    if (d != 0) {
      return "unclosed span on track " + std::to_string(track);
    }
  }
  return "";
}

}  // namespace pim::obs
