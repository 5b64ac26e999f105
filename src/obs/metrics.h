// Process-wide metrics registry: counters, gauges, and geometric
// histograms under stable names, snapshotted as one JSON document.
//
// This is the unified telemetry surface the wire `get_metrics` opcode
// serves: the net layer accounts wire-tax bytes here, shards publish
// queue-depth and busy-fraction gauges, and the query engine counts
// submitted ops. Unlike counter_set (per-component, deliberately
// unshared), the registry aggregates across every live component on
// purpose — it answers "what is this process doing", not "what did
// this simulated system do".
//
// Concurrency: counter()/gauge() return a reference to an atomic with
// stable address, and hist() returns a reference to a histogram cell
// with stable address and its own lock (callers cache the pointer and
// record without touching the registry mutex on hot paths); creation
// takes the registry mutex. All of it is TSan-clean by construction.
#ifndef PIM_OBS_METRICS_H
#define PIM_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/histogram.h"

namespace pim {
class json_writer;
}

namespace pim::obs {

/// One named histogram slot. The cell's address is stable for the
/// process lifetime (the registry never destroys cells, reset() zeroes
/// them in place), so call sites cache `&registry.hist(name)` exactly
/// like they cache counter() references. Recording takes the cell's
/// own mutex, not the registry's.
class histogram_cell {
 public:
  void record(std::uint64_t sample, std::uint64_t weight = 1) {
    std::lock_guard<std::mutex> lock(mu_);
    h_.record(sample, weight);
  }

  geo_histogram snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return h_;
  }

  void reset() {
    std::lock_guard<std::mutex> lock(mu_);
    h_ = geo_histogram{};
  }

 private:
  mutable std::mutex mu_;
  geo_histogram h_;
};

/// Point-in-time copy of the whole registry: the body of the wire
/// `snapshot` response and what the OpenMetrics exposition renders.
struct metrics_snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, geo_histogram> histograms;
};

class metrics_registry {
 public:
  static metrics_registry& instance();

  /// Monotonic counter `name`, created at zero on first use.
  std::atomic<std::uint64_t>& counter(const std::string& name);

  /// Point-in-time gauge `name`, created at zero on first use.
  std::atomic<std::int64_t>& gauge(const std::string& name);

  /// Histogram cell `name`, created empty on first use. Same contract
  /// as counter(): the returned reference is stable for the process
  /// lifetime and survives reset(), so hot paths cache it and skip the
  /// per-sample registry lookup.
  histogram_cell& hist(const std::string& name);

  /// Records one sample into the geometric histogram `name`
  /// (conveniences for cold paths; hot paths cache hist()).
  void record(const std::string& name, std::uint64_t sample);

  /// Copy of histogram `name` (empty if never recorded).
  geo_histogram histogram(const std::string& name) const;

  /// Point-in-time copy of every counter, gauge, and histogram.
  metrics_snapshot snapshot() const;

  /// Emits {"counters": {...}, "gauges": {...}, "histograms":
  /// {name: {count, p50, p95, p99}}} into an open JSON object.
  void to_json(json_writer& json) const;

  /// The snapshot as a standalone JSON document.
  std::string json() const;

  /// Zeroes every counter, gauge, and histogram in place (cached
  /// references stay valid) — tests and benches isolating scenarios.
  void reset();

 private:
  metrics_registry() = default;

  mutable std::mutex mu_;
  // Node-based maps: atomics and cells never move once created.
  std::map<std::string, std::unique_ptr<std::atomic<std::uint64_t>>>
      counters_;
  std::map<std::string, std::unique_ptr<std::atomic<std::int64_t>>> gauges_;
  std::map<std::string, std::unique_ptr<histogram_cell>> histograms_;
};

/// Renders a snapshot in Prometheus / OpenMetrics text exposition
/// format: every metric name is prefixed with `prefix_` and sanitized
/// to [a-zA-Z0-9_:], counters become `counter` samples with a `_total`
/// suffix, gauges become `gauge` samples, histograms become `summary`
/// quantile samples (p50/p95/p99 + _count). Ends with `# EOF` per the
/// OpenMetrics spec.
std::string openmetrics(const metrics_snapshot& snap,
                        const std::string& prefix = "pim");

/// Maps a registry name onto the Prometheus name grammar
/// ([a-zA-Z_:][a-zA-Z0-9_:]*): dots and other outsiders become
/// underscores, a leading digit gets one prepended. openmetrics()
/// names every metric through it.
std::string sanitize_metric_name(const std::string& name);

}  // namespace pim::obs

#endif  // PIM_OBS_METRICS_H
