// pim_top: terminal dashboard over a live pim_serverd.
//
// Polls the server's metrics snapshot (the `snapshot` wire op) every
// `interval` ms: per-shard queue depth / inflight tasks / busy-bank
// utilization, service latency percentiles, top sessions by request
// count, and the wire's own byte counters. The default mode redraws an
// ANSI dashboard per poll; `once=1` prints a single machine-readable
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
//       argument exits 2; a lost or refused connection exits 1.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/config.h"
#include "net/client.h"
#include "obs/metrics.h"
#include "service/service.h"

namespace {

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true); }

/// The value under `name`, zero when the snapshot lacks it.
template <typename Map>
typename Map::mapped_type value_of(const Map& map, const std::string& name) {
  auto it = map.find(name);
  return it == map.end() ? typename Map::mapped_type{} : it->second;
}

/// A quantile as obs::openmetrics prints it: exact, not rounded to six
/// significant digits.
std::string exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// `key value` lines, one metric per line — the machine-readable
/// `once=1` output CI greps.
std::string render_plain(const pim::obs::metrics_snapshot& snap) {
  std::ostringstream out;
  for (const auto& [name, v] : snap.counters) out << name << " " << v << "\n";
  for (const auto& [name, v] : snap.gauges) out << name << " " << v << "\n";
  for (const auto& [name, h] : snap.histograms) {
    out << name << ".count " << h.count() << "\n";
    out << name << ".p50 " << exact(h.percentile(0.50)) << "\n";
    out << name << ".p95 " << exact(h.percentile(0.95)) << "\n";
    out << name << ".p99 " << exact(h.percentile(0.99)) << "\n";
  }
  return out.str();
}

std::string render_dashboard(const pim::obs::metrics_snapshot& snap,
                             std::uint64_t poll) {
  const auto counter = [&snap](const std::string& name) {
    return value_of(snap.counters, name);
  };
  const auto gauge = [&snap](const std::string& name) {
    return value_of(snap.gauges, name);
  };
  std::ostringstream out;
  out << "\x1b[2J\x1b[H";  // clear + home
  out << "pim_top  poll #" << poll << "\n\n";

  out << "service: sessions=" << gauge("service.sessions")
      << " completed=" << counter("service.requests_completed")
      << " failed=" << counter("service.requests_failed")
      << " output=" << counter("service.output_bytes") << "B"
      << " ticks=" << counter("service.total_ticks")
      << " energy=" << counter("service.energy_pj") << "pJ\n";
  // The moved: and waits: lines list the service meters of each kind.
  const auto meter = [&counter](const pim::service::sched_meter& m) {
    return counter(std::string("service.") + m.name);
  };
  out << "moved:";
  for (const auto& m : pim::service::sched_meters) {
    if (m.kind == pim::service::meter_kind::moved) {
      out << " " << m.label << "=" << meter(m) << "B";
    }
  }
  out << "\n";
  auto lat = snap.histograms.find("service.latency_ns");
  if (lat != snap.histograms.end()) {
    const pim::geo_histogram& h = lat->second;
    out << "latency: count=" << h.count()
        << " p50=" << h.percentile(0.50) / 1e6 << "ms"
        << " p95=" << h.percentile(0.95) / 1e6 << "ms"
        << " p99=" << h.percentile(0.99) / 1e6 << "ms\n";
  }
  out << "net: server rx=" << counter("net.server.rx_bytes")
      << "B tx=" << counter("net.server.tx_bytes")
      << "B frames=" << counter("net.server.rx_frames") << "\n";
  out << "slow requests observed: "
      << counter("service.slow_requests_observed") << "\n";

  // Wait-state attribution: the wait meters partition aggregate task
  // lifetime exactly, so their sum is the lifetime and the shares
  // below always total 100%.
  std::uint64_t lifetime = 0;
  for (const auto& m : pim::service::sched_meters) {
    if (m.kind == pim::service::meter_kind::wait) lifetime += meter(m);
  }
  out << "waits:";
  if (lifetime == 0) out << " (no completed tasks yet)";
  for (const auto& m : pim::service::sched_meters) {
    if (lifetime == 0 || m.kind != pim::service::meter_kind::wait) continue;
    const std::uint64_t v = meter(m);
    out << " " << m.label << "=" << v << "ps(" << (v * 100 / lifetime)
        << "%)";
  }
  out << "\n\n";

  out << "shard  queue  inflight  sessions  busy-banks  energy-pJ\n";
  for (int s = 0;; ++s) {
    const std::string prefix = "service.shard." + std::to_string(s) + ".";
    if (snap.gauges.count(prefix + "queue_depth") == 0) break;
    out << "  " << s << "     " << gauge(prefix + "queue_depth")
        << "      " << gauge(prefix + "inflight_tasks") << "         "
        << gauge(prefix + "sessions") << "         "
        << gauge(prefix + "busy_banks_x1000") / 1000.0 << "       "
        << gauge(prefix + "energy_pj") << "\n";
  }

  out << "\ntop sessions (by requests):\n";
  for (int k = 0; k < 5; ++k) {
    const std::string slot = "service.top." + std::to_string(k);
    if (snap.gauges.count(slot + ".session") == 0) break;
    out << "  session " << gauge(slot + ".session") << ": "
        << gauge(slot + ".requests") << " requests, p99 "
        << gauge(slot + ".p99_ns") / 1e6 << "ms\n";
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
    for (std::uint64_t polls = 1;; ++polls) {
      // The first poll arms the slow-request log; later ones leave it
      // as they find it.
      const obs::metrics_snapshot snap =
          client.snapshot(polls == 1 ? slow_threshold_ns : -1);
      if (once) {
        std::cout << (openmetrics ? obs::openmetrics(snap)
                                  : render_plain(snap));
        break;
      }
      if (openmetrics) {
        std::cout << obs::openmetrics(snap) << "\n";
      } else {
        std::cout << render_dashboard(snap, polls) << std::flush;
      }
      if (count > 0 && polls >= static_cast<std::uint64_t>(count)) break;
      // Sleep out the interval in short steps, so SIGINT ends the
      // wait promptly.
      using clock = std::chrono::steady_clock;
      const clock::time_point next =
          clock::now() + std::chrono::milliseconds(interval);
      while (!g_stop.load() && clock::now() < next) {
        std::this_thread::sleep_for(std::min<clock::duration>(
            next - clock::now(), std::chrono::milliseconds(50)));
      }
      if (g_stop.load()) break;
    }
  } catch (const std::exception& e) {
    std::cerr << "pim_top: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
