#include "harness.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "common/json_writer.h"

namespace perfbench {

namespace {
// The innermost open span on this thread (1-based; 0 = none).
thread_local std::uint32_t current_span = 0;
}  // namespace

span_log& span_log::instance() {
  static span_log log;
  return log;
}

std::uint32_t span_log::open(const char* name, std::uint64_t op) {
  span_record rec;
  rec.name = name;
  rec.parent = current_span;
  rec.op = op;
  rec.start_ns = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(rec);
  return static_cast<std::uint32_t>(spans_.size());
}

void span_log::close(std::uint32_t id) {
  const std::int64_t end = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_ns = end;
}

std::vector<span_record> span_log::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::size_t span_log::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void span_log::write_json(const std::string& path) const {
  const std::vector<span_record> spans = snapshot();
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  out << "[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const span_record& s = spans[i];
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op << "}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]\n";
  if (!out) throw std::runtime_error("short write to span file " + path);
}

scoped_span::scoped_span(const char* name, std::uint64_t op) {
  span_log& log = span_log::instance();
  if (!log.enabled()) return;
  saved_parent_ = current_span;
  id_ = log.open(name, op);
  current_span = id_;
}

scoped_span::~scoped_span() {
  if (id_ == 0) return;
  span_log::instance().close(id_);
  current_span = saved_parent_;
}

std::map<std::string, span_totals> summarize(
    const std::vector<span_record>& spans, std::size_t first,
    std::size_t last) {
  std::map<std::string, span_totals> out;
  for (std::size_t i = first; i < last; ++i) {
    const span_record& s = spans[i];
    const double d = static_cast<double>(s.end_ns - s.start_ns);
    span_totals& t = out[s.name];
    ++t.count;
    t.total_ns += d;
    t.durations_ns.push_back(d);
  }
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// Bucket of value v: values below kSub have their own bucket; above,
// kSub buckets per power of two.
std::size_t latency_histogram::bucket_of(std::uint64_t v) {
  if (v < kSub) return static_cast<std::size_t>(v);
  const int e = std::bit_width(v) - 1;  // >= kSubBits
  const std::uint64_t mant = v >> (e - kSubBits);  // in [kSub, 2 kSub)
  const auto b = static_cast<std::size_t>(e - kSubBits + 1) * kSub +
                 static_cast<std::size_t>(mant - kSub);
  return std::min(b, static_cast<std::size_t>(kOctaves * kSub - 1));
}

std::pair<double, double> latency_histogram::bucket_range(std::size_t b) {
  if (b < kSub) return {static_cast<double>(b), 1.0};
  const int e = static_cast<int>(b / kSub) + kSubBits - 1;
  const double width = std::ldexp(1.0, e - kSubBits);
  return {static_cast<double>(kSub + b % kSub) * width, width};
}

void latency_histogram::record_ns(std::int64_t ns) {
  ++buckets_[bucket_of(static_cast<std::uint64_t>(std::max<std::int64_t>(ns, 0)))];
  ++count_;
}

void latency_histogram::merge(const latency_histogram& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double latency_histogram::percentile_us(double p) const {
  if (count_ == 0) return 0.0;
  // Rank p/100 * (n - 1) (linear interpolation between order
  // statistics), the samples of a bucket spread evenly over its range.
  const double rank = p / 100.0 * static_cast<double>(count_ - 1);
  double seen = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const auto n = static_cast<double>(buckets_[b]);
    if (n > 0 && rank < seen + n) {
      const auto [low, width] = bucket_range(b);
      return (low + (rank - seen + 0.5) / n * width) / 1e3;
    }
    seen += n;
  }
  return 0.0;
}

window_series::window_series(std::uint64_t ops_per_window,
                             std::function<double()> sim_cycles)
    : ops_per_window_(ops_per_window), sim_cycles_(std::move(sim_cycles)) {}

void window_series::start() {
  std::lock_guard<std::mutex> lock(mu_);
  windows_.clear();
  latency_ = latency_histogram{};
  window& w = windows_.emplace_back();
  w.cycles_start = sim_cycles_();
  w.start_ns = now_ns();
}

void window_series::record(std::int64_t latency_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  latency_.record_ns(latency_ns);
  window& w = windows_.back();
  if (++w.ops < ops_per_window_) return;
  w.end_ns = now_ns();
  w.cycles_end = sim_cycles_();
  windows_.push_back({w.end_ns, 0, w.cycles_end, 0, 0});
}

std::size_t window_series::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return windows_.empty() ? 0 : windows_.size() - 1;
}

window_figures window_series::fastest() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const window*> done;
  for (std::size_t i = 0; i + 1 < windows_.size(); ++i) done.push_back(&windows_[i]);
  std::sort(done.begin(), done.end(), [](const window* a, const window* b) {
    return a->end_ns - a->start_ns < b->end_ns - b->start_ns;
  });
  const std::size_t take = (done.size() + 3) / 4;  // a quarter, rounded up
  window_figures out;
  for (std::size_t i = 0; i < take; ++i) {
    const window& w = *done[i];
    ++out.windows;
    out.ops += w.ops;
    out.seconds += seconds_between(w.start_ns, w.end_ns);
    out.sim_cycles += w.cycles_end - w.cycles_start;
  }
  return out;
}

latency_histogram window_series::latency() const {
  std::lock_guard<std::mutex> lock(mu_);
  return latency_;
}

void phase_sample::finish(const window_series& series) {
  end_ns = now_ns();
  peak_rss_mb = peak_rss_mib();
  fast = series.fastest();
  latency = series.latency();
  windows = series.closed();
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

void report::check(bool ok, const std::string& what) {
  if (!ok) {
    correct = false;
    notes.push_back("CHECK FAILED: " + what);
  }
}

void report::add(const std::string& name, double value,
                 const std::string& unit) {
  metrics.push_back({name, value, unit});
}

void report::print() const {
  for (const std::string& line : notes) std::cout << line << "\n";
  pim::json_writer json;
  json.begin_object();
  json.key("correct").value(correct);
  json.key("attempted").value(attempted);
  json.key("failed").value(failed);
  json.key("metrics").begin_object();
  for (const metric& m : metrics) {
    json.key(m.name).begin_object();
    json.key("value").value(m.value);
    json.key("unit").value(m.unit);
    json.end_object();
  }
  json.end_object();
  json.end_object();
  std::cout << json.str() << std::endl;
}

void add_end_to_end(report& r, const phase_sample& phase,
                    const std::vector<double>& setup_s) {
  const double ops = static_cast<double>(phase.ops);
  std::string spread = "latency percentiles (us) p10..p99:";
  for (const double p : {10.0, 25.0, 50.0, 75.0, 80.0, 85.0, 90.0, 95.0, 99.0}) {
    spread += ' ';
    spread += std::to_string(static_cast<long long>(phase.latency.percentile_us(p)));
  }
  r.note(spread);
  r.note("host-clock rates over the fastest " +
         std::to_string(phase.fast.windows) + " of " +
         std::to_string(phase.windows) + " windows (" +
         std::to_string(phase.fast.ops) + " ops); whole phase " +
         std::to_string(phase.ops_per_s()) + " op/s");
  r.note("setup_s samples: " + [&] {
    std::string s;
    for (const double v : setup_s) s += std::to_string(v) + " ";
    return s;
  }());
  if (phase.fast.ops == 0) throw std::runtime_error("the timed phase closed no window");
  r.add("setup_s", median(setup_s), "s");
  r.add("ops_per_s", phase.fast.ops_per_s(), "op/s");
  r.add("op_latency_p50_us", phase.latency.percentile_us(50), "us");
  r.add("op_latency_p90_us", phase.latency.percentile_us(90), "us");
  r.add("sim_gbps", phase.sim_gbps, "GB/s");
  r.add("sim_cycles_per_host_s", phase.fast.cycles_per_s(), "cycles/s");
  r.add("energy_pj_per_op",
        ratio(static_cast<double>(phase.energy_fj) / 1000.0, ops), "pJ");
  r.add("offchip_bytes_per_op",
        ratio(static_cast<double>(phase.offchip_bytes), ops), "B");
  r.add("peak_rss_mb", phase.peak_rss_mb, "MiB");
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> list = {
      {"dram.sim_cycles", "count"},
      {"dram.host_ns_per_cycle", "ns"},
      {"dram.copy_ns_per_byte", "ns/B"},
      {"dram.tra_per_op", "count"},
      {"dram.act_per_op", "count"},
      {"dram.row_hit_ratio", "ratio"},
      {"dram.avg_busy_banks", "count"},
      {"dram.ledger_offchip_bytes_per_op", "B"},
      {"runtime.submit_ns_per_task", "ns"},
      {"runtime.tasks_ambit", "count"},
      {"runtime.tasks_rowclone", "count"},
      {"runtime.tasks_ndp", "count"},
      {"runtime.tasks_host", "count"},
      {"runtime.hazard_deferred_ratio", "ratio"},
      {"runtime.peak_in_flight", "count"},
      {"runtime.wait_admission_share", "ratio"},
      {"runtime.wait_hazard_share", "ratio"},
      {"runtime.wait_bank_share", "ratio"},
      {"runtime.exec_share", "ratio"},
      {"runtime.wire_share", "ratio"},
      {"service.self_us_write", "us"},
      {"service.self_us_read", "us"},
      {"service.self_us_bulk", "us"},
      {"service.enqueue_waits", "count"},
      {"service.requests_rejected", "count"},
      {"service.requests_failed", "count"},
      {"service.peak_queue_depth", "count"},
      {"service.hazard_drains_per_write", "ratio"},
      {"service.cross_plans", "count"},
      {"service.staged_bytes_per_op", "B"},
      {"net.self_us_write", "us"},
      {"net.self_us_read", "us"},
      {"net.self_us_bulk", "us"},
      {"net.tx_bytes_per_op", "B"},
      {"net.rx_bytes_per_op", "B"},
      {"net.rx_frames_per_op", "count"},
      {"query.plan_us", "us"},
      {"query.exec_us_p50", "us"},
      {"query.ops_per_query", "count"},
      {"query.load_s", "s"},
      {"query.gather_extra_us_p50", "us"},
      {"obs.trace_overhead_ratio", "ratio"},
  };
  return list;
}

void add_per_layer(report& r, const layer_values& values) {
  for (const auto& [name, value] : values) {
    const auto& list = per_layer_metrics();
    const bool known = std::any_of(list.begin(), list.end(), [&](const auto& m) {
      return m.first == name;
    });
    if (!known) throw std::logic_error("unlisted per-layer metric " + name);
  }
  for (const auto& [name, unit] : per_layer_metrics()) {
    const auto it = values.find(name);
    r.add(name, it == values.end() ? 0.0 : it->second, unit);
  }
}

}  // namespace perfbench
