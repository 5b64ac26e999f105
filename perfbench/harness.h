// perfbench harness: command line, host clock, span recorder, and the
// one-line JSON report every workload ends with.
//
// The benchmark drives pimlib only through its public APIs. Host time
// is this process's steady clock; simulated time is read from the
// library (now_ps, task reports). Spans are recorded by the benchmark
// around each call it makes into a layer, only in the traced run, and
// kept in memory until the run ends.
#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Where the traced run writes its span file.
  std::string out_dir = ".";
};

/// Host clock in nanoseconds (steady, process-local epoch).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e9;
}

/// Set-ups per untimed run: the one the timed phase uses, then the rest
/// after the output checks (setup_s reports their median). On a
/// 4-vCPU Xeon VM shared with other tenants, one vCPU ran the same
/// set-up at speeds up to 1.6x apart for a second or so at a time, so
/// the median needs samples spread over more than that.
constexpr int kSetups = 15;

/// Host seconds one call of `set_up` takes.
template <typename F>
double time_setup(F&& set_up) {
  const std::int64_t t0 = now_ns();
  set_up();
  return seconds_between(t0, now_ns());
}

// --- spans -----------------------------------------------------------------

struct span_record {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// 1-based index of the enclosing span on the same thread; 0 = root.
  std::uint32_t parent = 0;
  /// The benchmark op (task, request or query) the call served.
  std::uint64_t op = 0;
};

/// Process-wide span store. Recording is off unless enabled; a closed
/// span costs one mutex acquisition, which the traced run's overhead
/// ratio (obs.trace_overhead_ratio) measures.
class span_log {
 public:
  static span_log& instance();

  void set_enabled(bool on) { on_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return on_.load(std::memory_order_relaxed); }

  std::uint32_t open(const char* name, std::uint64_t op);
  void close(std::uint32_t id);

  std::vector<span_record> snapshot() const;
  std::size_t size() const;

  /// Writes every span as a JSON array of
  /// {name, start_ns, end_ns, parent, op} objects.
  void write_json(const std::string& path) const;

 private:
  std::atomic<bool> on_{false};
  mutable std::mutex mu_;
  std::vector<span_record> spans_;
};

/// RAII span around one call; a no-op while recording is off.
class scoped_span {
 public:
  explicit scoped_span(const char* name, std::uint64_t op = 0);
  ~scoped_span();
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

 private:
  std::uint32_t id_ = 0;
  std::uint32_t saved_parent_ = 0;
};

struct span_totals {
  std::uint64_t count = 0;
  double total_ns = 0;
  std::vector<double> durations_ns;
};
/// Per-name totals of the spans [first, last) of a snapshot.
std::map<std::string, span_totals> summarize(
    const std::vector<span_record>& spans, std::size_t first,
    std::size_t last);

// --- statistics ------------------------------------------------------------

/// Median, interpolated between the middle two samples; 0 for none.
double median(std::vector<double> values);

/// Fixed-memory latency histogram: 32 linear buckets per power of two
/// of the value in ns, so a bucket spans at most 3.1% of the values in
/// it, and the benchmark's own memory (which peak_rss_mb sees) does not
/// grow with the number of ops a run completes.
class latency_histogram {
 public:
  void record_ns(std::int64_t ns);
  void merge(const latency_histogram& other);
  std::uint64_t count() const { return count_; }
  /// p in [0, 100], in microseconds; 0 when empty.
  double percentile_us(double p) const;

 private:
  static constexpr int kSubBits = 5;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kOctaves = 37;  // values up to 2^41 ns (~37 min)
  std::vector<std::uint32_t> buckets_ =
      std::vector<std::uint32_t>(kOctaves * kSub, 0);
  std::uint64_t count_ = 0;

  static std::size_t bucket_of(std::uint64_t v);
  /// {low, width} of bucket b.
  static std::pair<double, double> bucket_range(std::size_t b);
};

// --- windows ---------------------------------------------------------------

/// Host-clock rates over a set of timed windows.
struct window_figures {
  std::size_t windows = 0;
  std::uint64_t ops = 0;
  double seconds = 0;     // host
  double sim_cycles = 0;  // DRAM cycles advanced, all shards

  double ops_per_s() const { return seconds == 0 ? 0.0 : static_cast<double>(ops) / seconds; }
  double cycles_per_s() const { return seconds == 0 ? 0.0 : sim_cycles / seconds; }
};

/// The timed phase cut into windows of equal work: a window closes at
/// every `ops_per_window`-th op recorded. Each window keeps its host
/// duration and the simulated cycles advanced in it; the series also
/// keeps every op's latency.
///
/// The host-clock rates (ops_per_s, sim_cycles_per_host_s) are taken
/// over the fastest quarter of the windows by host duration, not over
/// the whole phase. The host is shared: other tenants slow every vCPU
/// by up to 1.8x for seconds at a time, in no fixed pattern, and a
/// whole-phase rate weighs each slow stretch by its length, so it
/// measures how much of the run they overlapped. A slower program
/// makes every window slower, the fastest ones too. The latency
/// percentiles are taken over every op: in a closed loop a slow
/// stretch completes few ops, so it adds few samples, while picking
/// the shortest windows would pick the ops with the shortest
/// latencies.
class window_series {
 public:
  /// `sim_cycles` reads the simulated cycles advanced so far (all
  /// shards); it is called when the phase starts and at every window
  /// close, under the series' lock so that each reading pairs with the
  /// close it marks.
  window_series(std::uint64_t ops_per_window, std::function<double()> sim_cycles);

  /// Opens the first window.
  void start();
  /// Records one completed op and its latency, closing the open window
  /// when it is full. Thread-safe.
  void record(std::int64_t latency_ns);
  /// Windows closed so far.
  std::size_t closed() const;
  /// Rates over the fastest quarter (rounded up) of the closed
  /// windows; the open, partial window is left out.
  window_figures fastest() const;
  /// Latencies of every op recorded.
  latency_histogram latency() const;

 private:
  struct window {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    double cycles_start = 0;
    double cycles_end = 0;
    std::uint64_t ops = 0;
  };
  std::uint64_t ops_per_window_;
  std::function<double()> sim_cycles_;
  mutable std::mutex mu_;
  std::vector<window> windows_;  // the last one is open
  latency_histogram latency_;
};

/// Peak resident set of this process (VmHWM) in MiB.
double peak_rss_mib();

/// a / b, or 0 when b is 0.
inline double ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

// --- report ----------------------------------------------------------------

struct metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a run prints: human-readable notes, then one JSON line with
/// correct / attempted / failed / metrics.
struct report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<metric> metrics;
  std::vector<std::string> notes;

  /// Records an output check; a false check marks the run incorrect.
  void check(bool ok, const std::string& what);
  void add(const std::string& name, double value, const std::string& unit);
  void note(const std::string& line) { notes.push_back(line); }
  void print() const;
};

/// One timed phase as the end-to-end metrics see it.
struct phase_sample {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t ops = 0;                // completed ops
  double sim_cycles = 0;                // DRAM cycles advanced, all shards
  double sim_gbps = 0;
  std::uint64_t energy_fj = 0;          // meter delta
  std::uint64_t offchip_bytes = 0;      // ledger + host write/read bytes
  /// Peak resident set (MiB) when the timed phase ends, before any
  /// output check builds its reference.
  double peak_rss_mb = 0;
  /// Host-clock rates over the phase's fastest windows.
  window_figures fast;
  /// Latencies of every op of the phase.
  latency_histogram latency;
  std::size_t windows = 0;              // closed windows

  /// Ends the phase: stamps the end and takes the window figures.
  void finish(const window_series& series);
  double host_seconds() const { return seconds_between(start_ns, end_ns); }
  double ops_per_s() const { return ratio(static_cast<double>(ops), host_seconds()); }
};

/// Adds the nine end-to-end metrics. `setup_s` holds every set-up of
/// the run; its median is reported.
void add_end_to_end(report& r, const phase_sample& phase,
                    const std::vector<double>& setup_s);

/// Canonical per-layer metric list (name, unit), in output order. The
/// traced run reports each one; layers a workload does not exercise
/// read 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Per-layer values a workload measured, keyed by metric name.
using layer_values = std::map<std::string, double>;

/// Adds every per-layer metric from `values` (0 where absent); throws
/// if `values` names a metric outside the canonical list.
void add_per_layer(report& r, const layer_values& values);

// --- workloads -------------------------------------------------------------

report run_offload_mix(const options& opt);
report run_wire_rw(const options& opt);
report run_scan_query(const options& opt);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H
