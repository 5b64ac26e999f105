// Low-overhead span/event recorder for the whole PIM stack.
//
// One process-wide tracer collects events from every layer — client
// submit, wire frame encode/decode, shard admission, scheduler
// release, per-(channel,bank) DRAM execution — into per-thread
// buffers that are drained centrally at export time. Two clock
// domains coexist: host tracks timestamp events in wall-clock
// nanoseconds since the tracer's epoch, simulated tracks in the
// owning shard's picosecond clock. A request is stitched across
// threads, shards, and layers by its flow id (obs::new_flow(), also
// used as the wire request id, so a loopback trace connects client
// and server halves).
//
// Cost model: tracing is off by default. Every recording helper
// checks one relaxed atomic first and returns immediately when
// tracing is disabled — no allocation, no lock, no timestamp read —
// so instrumented hot paths pay a predictable branch and nothing
// else. When enabled, a record takes the calling thread's own buffer
// mutex (uncontended except against a concurrent drain, which is why
// this is TSan-clean) and appends one POD event. Name/category
// strings must have static storage duration: events store the
// pointers.
//
// Export is Chrome trace_event JSON ("traceEvents" array), loadable
// in Perfetto: host tracks appear under one process, each shard's
// simulated lanes under their own process (one thread lane per
// (channel,bank)), and flow arrows connect each request's spans.
#ifndef PIM_OBS_TRACE_H
#define PIM_OBS_TRACE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pim::obs {

/// Which clock an event's timestamps are in: host wall-clock
/// (nanoseconds since the tracer epoch) or a shard's simulated clock
/// (picoseconds). The domain is a property of the track.
enum class clock_domain : std::uint8_t { host, sim };

enum class event_kind : std::uint8_t {
  begin,       // B: span opens on a track
  end,         // E: most recent span on the track closes
  complete,    // X: self-contained span [ts, ts+dur]
  instant,     // i: point event
  counter,     // C: named value over time (arg carries the value)
  flow_begin,  // s: first point of a flow arrow
  flow_step,   // t: intermediate point
  flow_end,    // f: final point
};

struct trace_event {
  event_kind kind = event_kind::instant;
  std::uint32_t track = 0;
  const char* name = nullptr;  // static storage duration only
  const char* cat = nullptr;   // static storage duration only
  std::int64_t ts = 0;         // host: ns since epoch; sim: ps
  std::int64_t dur = 0;        // complete events, same unit as ts
  std::uint64_t flow = 0;      // 0 = not part of a flow
  const char* arg_name = nullptr;  // optional numeric argument
  std::int64_t arg = 0;
};

/// Identity of one track: where its events land in the exported
/// process/thread grid, and which clock its timestamps are in.
struct track_info {
  std::uint32_t id = 0;
  int pid = 0;
  int tid = 0;
  std::string process;
  std::string thread;
  clock_domain domain = clock_domain::host;
};

class tracer {
 public:
  static tracer& instance();

  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  void disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Wall-clock nanoseconds since the tracer was constructed.
  std::int64_t now_host_ns() const;

  /// Process-unique flow id; never zero. Also valid while disabled
  /// (the wire layer uses flows as request ids unconditionally).
  std::uint64_t next_flow() {
    return next_flow_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Registers a track; returns its id. pid/tid only structure the
  /// exported grid — they need not be real process/thread ids.
  std::uint32_t register_track(int pid, int tid, std::string process,
                               std::string thread, clock_domain domain);

  /// A fresh pid for one simulated-clock process (one per shard), so
  /// concurrently live shards never collide in the exported grid.
  int alloc_sim_pid();

  /// The calling thread's host-domain track, registered on first use.
  std::uint32_t thread_track();

  /// Renames the calling thread's host track (worker threads label
  /// themselves, e.g. "shard 3 worker").
  void name_thread(const std::string& process, const std::string& thread);

  /// Appends one event to the calling thread's buffer. Caller is
  /// expected to have checked enabled() (the helpers below do).
  void record(const trace_event& e);

  /// Copies out every buffered event (drain order: by thread, then
  /// append order within a thread).
  std::vector<trace_event> snapshot() const;
  std::vector<track_info> tracks() const;
  std::size_t event_count() const;
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  void clear();

  /// Chrome trace_event JSON of everything currently buffered.
  std::string chrome_json() const;
  void write_chrome_json(const std::string& path) const;

 private:
  tracer();

  /// One thread's event buffer. The owning thread appends under mu;
  /// snapshot/clear take the same mutex from the draining thread. The
  /// tracer keeps a shared_ptr so a buffer outlives its thread.
  struct thread_buffer {
    std::mutex mu;
    std::vector<trace_event> events;
  };

  thread_buffer& local_buffer();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_flow_{1};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<int> next_sim_pid_{100};
  std::int64_t epoch_ns_ = 0;  // steady_clock at construction

  mutable std::mutex mu_;  // buffers_ list and track registry
  std::vector<std::shared_ptr<thread_buffer>> buffers_;
  std::vector<track_info> tracks_;
  std::uint32_t next_tid_ = 1;  // host-track tids, one per thread
};

// --- recording helpers (all near-free when tracing is off) -----------------

inline bool on() { return tracer::instance().enabled(); }

inline std::uint64_t new_flow() { return tracer::instance().next_flow(); }

/// Max events one thread buffers before further records are dropped
/// (and counted); bounds memory under a forgotten-enabled tracer.
inline constexpr std::size_t max_events_per_thread = 1u << 20;

void emit_instant(const char* name, const char* cat, std::uint64_t flow = 0);
void emit_flow_begin(std::uint64_t flow, const char* name, const char* cat);
void emit_flow_step(std::uint64_t flow, const char* name, const char* cat);
void emit_flow_end(std::uint64_t flow, const char* name, const char* cat);
/// Self-contained span on an explicit (typically simulated) track.
void emit_complete(std::uint32_t track, const char* name, const char* cat,
                   std::int64_t ts, std::int64_t dur, std::uint64_t flow = 0,
                   const char* arg_name = nullptr, std::int64_t arg = 0);

/// RAII begin/end span on the calling thread's host track. Hoists the
/// enabled check into the constructor: a disabled span is two relaxed
/// loads and no stores.
class span {
 public:
  explicit span(const char* name, const char* cat, std::uint64_t flow = 0,
                const char* arg_name = nullptr, std::int64_t arg = 0) {
    if (!on()) return;
    active_ = true;
    begin(name, cat, flow, arg_name, arg);
  }
  ~span() {
    if (active_) end();
  }
  span(const span&) = delete;
  span& operator=(const span&) = delete;

 private:
  void begin(const char* name, const char* cat, std::uint64_t flow,
             const char* arg_name, std::int64_t arg);
  void end();
  bool active_ = false;
};

/// Validates a drained event stream: every begin closes (per track,
/// stack order), every flow step/end has a begin. Returns an empty
/// string when well-formed, else a description of the first problem.
/// Shared by obs_test and the benches' trace artifacts.
std::string validate(const std::vector<trace_event>& events);

}  // namespace pim::obs

#endif  // PIM_OBS_TRACE_H
