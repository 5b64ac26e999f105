// pim_top: terminal dashboard over a live pim_serverd.
//
// Subscribes to the server's streaming telemetry (the `watch_stats`
// wire op) and folds the delta pushes into a cumulative view: per-
// shard queue depth / inflight tasks / busy-bank utilization, service
// latency percentiles, top sessions by request count, and the wire's
// own byte counters. The default mode redraws an ANSI dashboard at
// the push interval; `once=1` prints a single machine-readable
// snapshot and exits (the CI smoke mode); `format=openmetrics` emits
// the snapshot as Prometheus/OpenMetrics text exposition instead
// (point a file_sd scraper at `pim_top once=1 format=openmetrics`).
//
// Usage (key=value arguments, common/config.h conventions):
//   pim_top port=7321                        # live dashboard, 1s
//   pim_top port=7321 interval=250 count=20  # 20 redraws, then exit
//   pim_top port=7321 once=1                 # one snapshot, plain
//   pim_top port=7321 once=1 format=openmetrics
//   pim_top port=7321 slow_threshold_ns=5000000  # also arm the
//                                            # server's slow-request
//                                            # log at 5 ms
// Keys: host, port (1-65535), interval (ms, 1-3600000), count (0 =
//       until SIGINT), once, format (plain|openmetrics),
//       slow_threshold_ns (-1 = leave). A malformed or out-of-range
//       argument exits 2.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/config.h"
#include "net/client.h"
#include "obs/metrics.h"
#include "service/service.h"

namespace {

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true); }

/// The folded cumulative view of the delta stream.
struct stats_view {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, pim::net::stats_push_resp::hist_entry> hists;

  void fold(const pim::net::stats_push_resp& push) {
    for (const auto& [name, v] : push.counters) counters[name] = v;
    for (const auto& [name, v] : push.gauges) gauges[name] = v;
    for (const auto& h : push.hists) hists[h.name] = h;
  }

  std::uint64_t counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  std::int64_t gauge(const std::string& name) const {
    auto it = gauges.find(name);
    return it == gauges.end() ? 0 : it->second;
  }
};

/// `key value` lines, one metric per line — the machine-readable
/// `once=1` output CI greps.
std::string render_plain(const stats_view& view) {
  std::ostringstream out;
  for (const auto& [name, v] : view.counters) out << name << " " << v << "\n";
  for (const auto& [name, v] : view.gauges) out << name << " " << v << "\n";
  for (const auto& [name, h] : view.hists) {
    out << name << ".count " << h.count << "\n";
    out << name << ".p50 " << h.p50 << "\n";
    out << name << ".p95 " << h.p95 << "\n";
    out << name << ".p99 " << h.p99 << "\n";
  }
  return out.str();
}

/// Prometheus/OpenMetrics text exposition of the folded view — the
/// same dialect obs::openmetrics emits for an in-process registry
/// snapshot, rebuilt here from the wire's percentile summaries.
std::string render_openmetrics(const stats_view& view) {
  std::ostringstream out;
  const std::string prefix = "pim";
  for (const auto& [name, v] : view.counters) {
    const std::string metric = prefix + "_" + pim::obs::sanitize_metric_name(name);
    out << "# TYPE " << metric << " counter\n";
    out << metric << "_total " << v << "\n";
  }
  for (const auto& [name, v] : view.gauges) {
    const std::string metric = prefix + "_" + pim::obs::sanitize_metric_name(name);
    out << "# TYPE " << metric << " gauge\n";
    out << metric << " " << v << "\n";
  }
  for (const auto& [name, h] : view.hists) {
    const std::string metric = prefix + "_" + pim::obs::sanitize_metric_name(name);
    out << "# TYPE " << metric << " summary\n";
    out << metric << "_count " << h.count << "\n";
    out << metric << "{quantile=\"0.5\"} " << h.p50 << "\n";
    out << metric << "{quantile=\"0.95\"} " << h.p95 << "\n";
    out << metric << "{quantile=\"0.99\"} " << h.p99 << "\n";
  }
  out << "# EOF\n";
  return out.str();
}

std::string render_dashboard(const stats_view& view, std::uint64_t seq) {
  std::ostringstream out;
  out << "\x1b[2J\x1b[H";  // clear + home
  out << "pim_top  push #" << seq << "\n\n";

  out << "service: sessions=" << view.gauge("service.sessions")
      << " completed=" << view.counter("service.requests_completed")
      << " failed=" << view.counter("service.requests_failed")
      << " output=" << view.counter("service.output_bytes") << "B"
      << " ticks=" << view.counter("service.total_ticks")
      << " energy=" << view.counter("service.energy_pj") << "pJ\n";
  // The moved: and waits: lines list the service meters of each kind.
  const auto counter = [&view](const pim::service::sched_meter& m) {
    return view.counter(std::string("service.") + m.name);
  };
  out << "moved:";
  for (const auto& m : pim::service::sched_meters) {
    if (m.kind == pim::service::meter_kind::moved) {
      out << " " << m.label << "=" << counter(m) << "B";
    }
  }
  out << "\n";
  auto lat = view.hists.find("service.latency_ns");
  if (lat != view.hists.end()) {
    out << "latency: count=" << lat->second.count
        << " p50=" << lat->second.p50 / 1e6 << "ms"
        << " p95=" << lat->second.p95 / 1e6 << "ms"
        << " p99=" << lat->second.p99 / 1e6 << "ms\n";
  }
  out << "net: server rx=" << view.counter("net.server.rx_bytes")
      << "B tx=" << view.counter("net.server.tx_bytes")
      << "B frames=" << view.counter("net.server.rx_frames") << "\n";
  out << "slow requests observed: "
      << view.counter("service.slow_requests_observed") << "\n";

  // Wait-state attribution: the wait meters partition aggregate task
  // lifetime exactly, so their sum is the lifetime and the shares
  // below always total 100%.
  std::uint64_t lifetime = 0;
  for (const auto& m : pim::service::sched_meters) {
    if (m.kind == pim::service::meter_kind::wait) lifetime += counter(m);
  }
  out << "waits:";
  if (lifetime == 0) out << " (no completed tasks yet)";
  for (const auto& m : pim::service::sched_meters) {
    if (lifetime == 0 || m.kind != pim::service::meter_kind::wait) continue;
    const std::uint64_t v = counter(m);
    out << " " << m.label << "=" << v << "ps(" << (v * 100 / lifetime)
        << "%)";
  }
  out << "\n\n";

  out << "shard  queue  inflight  sessions  busy-banks  energy-pJ\n";
  for (int s = 0;; ++s) {
    const std::string prefix = "service.shard." + std::to_string(s) + ".";
    if (view.gauges.find(prefix + "queue_depth") == view.gauges.end()) break;
    out << "  " << s << "     " << view.gauge(prefix + "queue_depth")
        << "      " << view.gauge(prefix + "inflight_tasks") << "         "
        << view.gauge(prefix + "sessions") << "         "
        << view.gauge(prefix + "busy_banks_x1000") / 1000.0 << "       "
        << view.gauge(prefix + "energy_pj") << "\n";
  }

  out << "\ntop sessions (by requests):\n";
  for (int k = 0; k < 5; ++k) {
    const std::string slot = "service.top." + std::to_string(k);
    if (view.gauges.find(slot + ".session") == view.gauges.end()) break;
    out << "  session " << view.gauge(slot + ".session") << ": "
        << view.gauge(slot + ".requests") << " requests, p99 "
        << view.gauge(slot + ".p99_ns") / 1e6 << "ms\n";
  }
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pim;

  std::string host;
  std::uint16_t port = 0;
  bool once = false;
  bool openmetrics = false;
  std::uint32_t interval = 0;
  int count = 0;
  std::int64_t slow_threshold_ns = -1;
  try {
    const config cfg = config::from_args({argv + 1, argv + argc});
    host = cfg.get_string("host", "127.0.0.1");
    port = static_cast<std::uint16_t>(cfg.get_int("port", 7321, 1, 65535));
    once = cfg.get_bool("once", false);
    const std::string format = cfg.get_string("format", "plain");
    openmetrics = format == "openmetrics";
    if (!openmetrics && format != "plain") {
      throw std::invalid_argument("unknown format " + format +
                                  " (plain|openmetrics)");
    }
    interval = static_cast<std::uint32_t>(
        cfg.get_int("interval", 1000, 1, 3'600'000));
    count = static_cast<int>(cfg.get_int("count", 0, 0, 1'000'000'000));
    slow_threshold_ns = cfg.get_int("slow_threshold_ns", -1);
  } catch (const std::exception& e) {
    std::cerr << "pim_top: " << e.what() << "\n";
    return 2;
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  try {
    net::remote_client client(host, port);

    std::mutex mu;
    std::condition_variable cv;
    stats_view view;
    std::uint64_t pushes = 0;

    client.watch_stats(
        // once=1 needs exactly the seq-0 full snapshot; a long
        // interval keeps the server from racing a second push in.
        once ? 60'000 : interval,
        [&](const net::stats_push_resp& push) {
          std::lock_guard<std::mutex> lock(mu);
          view.fold(push);
          ++pushes;
          cv.notify_all();
        },
        slow_threshold_ns);

    std::unique_lock<std::mutex> lock(mu);
    std::uint64_t rendered = 0;
    for (;;) {
      cv.wait_for(lock, std::chrono::milliseconds(200),
                  [&] { return pushes > rendered; });
      if (pushes > rendered) {
        rendered = pushes;
        if (once) {
          std::cout << (openmetrics ? render_openmetrics(view)
                                    : render_plain(view));
          break;
        }
        if (openmetrics) {
          std::cout << render_openmetrics(view) << "\n";
        } else {
          std::cout << render_dashboard(view, rendered) << std::flush;
        }
        if (count > 0 && rendered >= static_cast<std::uint64_t>(count)) break;
      }
      if (g_stop.load()) break;
    }
    lock.unlock();
    client.unwatch_stats();
  } catch (const std::exception& e) {
    std::cerr << "pim_top: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
