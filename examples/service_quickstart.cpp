// Quickstart for the sharded PIM service front-end.
//
// Starts a 2-shard service, opens two client sessions (each pinned to
// a shard with all of its vectors), and runs a small bulk-op pipeline
// per client from its own thread — the minimal end-to-end tour of the
// service → runtime → dispatcher → DRAM stack.
#include <atomic>
#include <iostream>
#include <thread>

#include "service/client.h"

int main() {
  using namespace pim;

  service::service_config cfg;
  cfg.shards = 2;
  cfg.routing = service::shard_routing::range;
  cfg.sessions_per_shard = 1;  // tenant A -> shard 0, tenant B -> shard 1
  service::pim_service svc(cfg);
  svc.start();

  std::atomic<bool> ok{true};
  auto tenant = [&svc, &ok](std::uint64_t seed, const char* name) {
    service::service_client client(svc);
    const bits size = 64'000;
    auto v = client.allocate(size, 3);

    rng gen(seed);
    const bitvector a = bitvector::random(size, gen);
    const bitvector b = bitvector::random(size, gen);
    client.write(v[0], a);
    client.write(v[1], b);

    // Submit asynchronously; the shard's worker thread advances its
    // own simulated clock and completes the future.
    service::request_future f =
        client.submit_bulk(dram::bulk_op::xor_op, v[0], &v[1], v[2]);
    const runtime::task_report& report = f.get().report;

    const bool correct = client.read(v[2]) == (a ^ b);
    if (!correct) ok = false;
    std::cout << name << ": shard " << client.shard_index() << ", "
              << runtime::to_string(report.where) << " backend, "
              << static_cast<double>(report.latency()) / 1e6 << " us, "
              << (correct ? "correct" : "WRONG") << "\n";
  };

  std::thread t1(tenant, 1, "tenant A");
  std::thread t2(tenant, 2, "tenant B");
  t1.join();
  t2.join();

  const service::service_stats stats = svc.stats();
  std::cout << "service: " << stats.sessions << " sessions, "
            << stats.tasks_submitted << " tasks, "
            << stats.requests_completed << " requests completed\n";
  svc.stop();
  return ok ? 0 : 1;
}
