// pim_serverd: standalone networked PIM service.
//
// Binds a pim_server on loopback (or a given host) and serves the
// wire protocol until SIGINT/SIGTERM. Out-of-process clients connect
// with net::remote_client (see examples/net_quickstart.cpp) or any
// implementation of the framing in src/net/protocol.h.
//
// Usage (key=value arguments, common/config.h conventions):
//   pim_serverd port=7321 shards=4
//   pim_serverd port=0 port_file=port.txt    # ephemeral port, written
//                                            # to the file once bound
//                                            # (how the CI smoke test
//                                            # rendezvouses)
// Keys: host, port (0-65535), port_file, shards (1-256), routing
//       (hash|range), sessions_per_shard (>= 1), queue (per-session
//       admission bound, 1-1048576), trace (path: enable tracing at
//       startup, write Chrome trace JSON there on shutdown; clients can
//       also toggle the tracer at runtime with the trace_ctl wire op).
// A malformed or out-of-range argument exits 2 before any socket is
// bound; a server that fails to start exits 1.
#include <atomic>
#include <csignal>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <thread>

#include "common/config.h"
#include "net/server.h"
#include "obs/trace.h"

namespace {

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true); }

}  // namespace

int main(int argc, char** argv) {
  using namespace pim;

  net::server_config server_cfg;
  std::string trace_path;
  std::string port_file;
  try {
    const config cfg = config::from_args({argv + 1, argv + argc});
    server_cfg.host = cfg.get_string("host", "127.0.0.1");
    server_cfg.port =
        static_cast<std::uint16_t>(cfg.get_int("port", 7321, 0, 65535));
    server_cfg.service.shards =
        static_cast<int>(cfg.get_int("shards", 4, 1, 256));
    const std::string routing = cfg.get_string("routing", "hash");
    if (routing != "hash" && routing != "range") {
      throw std::invalid_argument("unknown routing " + routing +
                                  " (hash|range)");
    }
    server_cfg.service.routing = routing == "range"
                                     ? service::shard_routing::range
                                     : service::shard_routing::hash;
    server_cfg.service.sessions_per_shard =
        static_cast<std::uint64_t>(cfg.get_int("sessions_per_shard", 64, 1));
    server_cfg.service.shard.session_queue_capacity =
        static_cast<std::size_t>(cfg.get_int("queue", 64, 1, 1 << 20));
    trace_path = cfg.get_string("trace", "");
    port_file = cfg.get_string("port_file", "");
  } catch (const std::exception& e) {
    std::cerr << "pim_serverd: " << e.what() << "\n";
    return 2;
  }

  if (!trace_path.empty()) obs::tracer::instance().enable();

  std::optional<net::pim_server> server;
  try {
    server.emplace(server_cfg);
    server->start();
  } catch (const std::exception& e) {
    std::cerr << "pim_serverd: " << e.what() << "\n";
    return 1;
  }

  if (!port_file.empty()) {
    std::ofstream out(port_file);
    out << server->port() << "\n";
  }
  std::cout << "pim_serverd: listening on " << server_cfg.host << ":"
            << server->port() << " (" << server_cfg.service.shards
            << " shards)\n"
            << std::flush;

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::cout << "pim_serverd: shutting down\n";
  server->stop();
  if (!trace_path.empty()) {
    try {
      obs::tracer::instance().write_chrome_json(trace_path);
      std::cout << "pim_serverd: trace written to " << trace_path << "\n";
    } catch (const std::exception& e) {
      std::cerr << "pim_serverd: trace dump failed: " << e.what() << "\n";
      return 1;
    }
  }
  return 0;
}
