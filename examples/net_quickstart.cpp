// Quickstart for the networked PIM service.
//
// Connects to a running pim_serverd, drives a deterministic synthetic
// client chain over the socket with remote_client, and — because the
// chain's digest is a pure function of its config — checks the remote
// digest bit for bit against the same chain driven through an
// in-process service_client on a local single-shard service. The
// digest equality is the whole point: transport must never change
// results.
//
// Usage: net_quickstart port=7321 [host=127.0.0.1] [ops=24]
// Exit code 0 = digests match; 1 = mismatch; 2 = usage/connect error.
#include <iostream>

#include "common/config.h"
#include "net/client.h"
#include "service/synthetic.h"

int main(int argc, char** argv) {
  using namespace pim;

  config cfg;
  std::uint16_t port = 0;
  service::synthetic_config chain;
  try {
    cfg = config::from_args({argv + 1, argv + argc});
    port = static_cast<std::uint16_t>(cfg.get_int("port", 7321, 1, 65535));
    chain.ops = static_cast<int>(cfg.get_int("ops", 24, 1, 1'000'000));
  } catch (const std::exception& e) {
    std::cerr << "net_quickstart: " << e.what() << "\n";
    return 2;
  }
  const std::string host = cfg.get_string("host", "127.0.0.1");

  chain.groups = 4;
  chain.vector_bits = 4 * 8192;
  chain.seed = 42;

  // Remote run: pipelined submits over the wire, responses completing
  // out of order as the server's shard clocks advance.
  std::uint64_t remote_digest = 0;
  try {
    net::remote_client client(host, port);
    const service::client_outcome outcome =
        service::run_synthetic_client(client, chain);
    remote_digest = outcome.digest;
    client.barrier();  // server-side drain before we read stats
    std::cout << "remote : session " << outcome.session << " on shard "
              << outcome.shard << ", " << outcome.tasks
              << " pipelined ops, digest 0x" << std::hex << remote_digest
              << std::dec << "\n";
  } catch (const std::exception& e) {
    std::cerr << "net_quickstart: remote run failed: " << e.what() << "\n";
    return 2;
  }

  // Local reference: the same chain through the in-process client.
  service::service_config local;
  local.shards = 1;
  service::pim_service svc(local);
  svc.start();
  const service::client_outcome reference =
      service::run_synthetic_client(svc, chain);
  svc.stop();
  std::cout << "local  : digest 0x" << std::hex << reference.digest
            << std::dec << "\n";

  const bool match = remote_digest == reference.digest;
  std::cout << "digests " << (match ? "match" : "DIFFER") << "\n";
  return match ? 0 : 1;
}
