// trace_dump: remote control of a pim_serverd's tracer and metrics.
//
// Connects to a running server over the wire protocol and drives the
// trace_ctl / get_metrics opcodes:
//
//   trace_dump port=7321 cmd=enable           # start recording
//   trace_dump port=7321 cmd=dump out=t.json  # fetch trace, write file
//   trace_dump port=7321 cmd=disable
//   trace_dump port=7321 cmd=clear
//   trace_dump port=7321 cmd=metrics out=m.json
//
// `dump` fetches the Chrome trace JSON inline over the wire and writes
// it locally (out= defaults to stdout), so the trace lands next to the
// operator, not in the server's working directory. `metrics` fetches
// the server process's metrics-registry snapshot plus service stats.
// A malformed argument or an unknown cmd exits 2 before connecting; a
// failed connection or request exits 1.
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "common/config.h"
#include "net/client.h"

namespace {

int write_out(const std::string& path, const std::string& body) {
  if (path.empty()) {
    std::cout << body << "\n";
    return 0;
  }
  std::ofstream out(path, std::ios::binary);
  out << body;
  if (!out) {
    std::cerr << "trace_dump: cannot write " << path << "\n";
    return 1;
  }
  std::cout << "trace_dump: wrote " << body.size() << " bytes to " << path
            << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pim;

  config cfg;
  std::uint16_t port = 0;
  std::string cmd;
  try {
    cfg = config::from_args({argv + 1, argv + argc});
    port = static_cast<std::uint16_t>(cfg.get_int("port", 7321, 1, 65535));
    cmd = cfg.get_string("cmd", "dump");
    if (cmd != "enable" && cmd != "disable" && cmd != "dump" &&
        cmd != "clear" && cmd != "metrics") {
      throw std::invalid_argument("unknown cmd '" + cmd +
                                  "' (enable|disable|dump|clear|metrics)");
    }
  } catch (const std::exception& e) {
    std::cerr << "trace_dump: " << e.what() << "\n";
    return 2;
  }

  const std::string host = cfg.get_string("host", "127.0.0.1");
  const std::string out = cfg.get_string("out", "");

  try {
    net::remote_client client(host, port);
    if (cmd == "enable") {
      client.trace_enable();
      std::cout << "trace_dump: tracing enabled\n";
    } else if (cmd == "disable") {
      const std::uint64_t events = client.trace_disable();
      std::cout << "trace_dump: tracing disabled (" << events
                << " events buffered)\n";
    } else if (cmd == "clear") {
      client.trace_clear();
      std::cout << "trace_dump: trace buffer cleared\n";
    } else if (cmd == "dump") {
      std::string json;
      const std::uint64_t events = client.trace_dump(&json);
      std::cerr << "trace_dump: " << events << " events\n";
      return write_out(out, json);
    } else {  // metrics
      return write_out(out, client.metrics_json());
    }
  } catch (const std::exception& e) {
    std::cerr << "trace_dump: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
