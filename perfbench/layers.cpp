#include "layers.h"

#include <algorithm>

namespace perfbench {

using pim::runtime::backend_kind;
using pim::runtime::runtime_stats;

pim::core::pim_system_config shard_config() {
  pim::core::pim_system_config cfg;
  cfg.org.channels = 1;
  cfg.org.ranks = 1;
  cfg.org.banks = 8;
  cfg.org.subarrays = 8;
  cfg.org.rows = 1024;
  cfg.org.columns = 128;  // 8 KiB rows
  return cfg;
}

runtime_stats total_runtime(const pim::service::service_stats& stats) {
  runtime_stats t;
  pim::runtime::scheduler_stats& o = t.sched;
  o.submitted = stats.sched_submitted;
  o.hazard_deferred = stats.hazard_deferred;
  o.ticks = stats.total_ticks;
  o.busy_bank_ticks = stats.busy_bank_ticks;
  o.offchip_bytes = stats.moved_offchip_bytes;
  o.wait_admission_ps = stats.wait_admission_ps;
  o.wait_hazard_ps = stats.wait_hazard_ps;
  o.wait_bank_ps = stats.wait_bank_ps;
  o.exec_ps = stats.wait_exec_ps;
  o.wire_ps = stats.wait_wire_ps;
  o.task_lifetime_ps = stats.wait_lifetime_ps;
  // The service does not aggregate these two.
  for (const pim::service::shard_stats& s : stats.shards) {
    o.peak_in_flight = std::max(o.peak_in_flight, s.runtime.sched.peak_in_flight);
    for (const auto& [backend, b] : s.runtime.backends) {
      t.backends[backend].tasks += b.tasks;
    }
  }
  return t;
}

double shard_cycles(const pim::service::service_stats& stats,
                    pim::picoseconds tck_ps) {
  double cycles = 0;
  for (const auto& s : stats.shards) {
    cycles += static_cast<double>(s.now_ps / tck_ps);
  }
  return cycles;
}

void add_dram_commands(layer_values& v, const pim::counter_set& before,
                       const pim::counter_set& after, double ops) {
  auto delta = [&](const char* name) {
    return static_cast<double>(after.get(name) - before.get(name));
  };
  v["dram.tra_per_op"] = ratio(delta("dram.tra"), ops);
  v["dram.act_per_op"] = ratio(
      delta("dram.act") + delta("dram.bulk_act") + delta("dram.copy_act"),
      ops);
  const double hits = delta("ctrl.row_hits");
  v["dram.row_hit_ratio"] = ratio(
      hits, hits + delta("ctrl.row_misses") + delta("ctrl.row_conflicts"));
}

void add_runtime_delta(layer_values& v, const runtime_stats& before,
                       const runtime_stats& after, double ops) {
  auto tasks = [&](backend_kind k) {
    auto count = [k](const runtime_stats& s) {
      const auto it = s.backends.find(k);
      return it == s.backends.end() ? 0.0
                                    : static_cast<double>(it->second.tasks);
    };
    return count(after) - count(before);
  };
  v["runtime.tasks_ambit"] = tasks(backend_kind::ambit);
  v["runtime.tasks_rowclone"] = tasks(backend_kind::rowclone);
  v["runtime.tasks_ndp"] = tasks(backend_kind::ndp_logic);
  v["runtime.tasks_host"] = tasks(backend_kind::host);

  const auto& a = after.sched;
  const auto& b = before.sched;
  auto d = [](std::uint64_t x, std::uint64_t y) {
    return static_cast<double>(x - y);
  };
  v["runtime.hazard_deferred_ratio"] =
      ratio(d(a.hazard_deferred, b.hazard_deferred), d(a.submitted, b.submitted));
  v["runtime.peak_in_flight"] = a.peak_in_flight;
  const double life = d(a.task_lifetime_ps, b.task_lifetime_ps);
  v["runtime.wait_admission_share"] =
      ratio(d(a.wait_admission_ps, b.wait_admission_ps), life);
  v["runtime.wait_hazard_share"] =
      ratio(d(a.wait_hazard_ps, b.wait_hazard_ps), life);
  v["runtime.wait_bank_share"] = ratio(d(a.wait_bank_ps, b.wait_bank_ps), life);
  v["runtime.exec_share"] = ratio(d(a.exec_ps, b.exec_ps), life);
  v["runtime.wire_share"] = ratio(d(a.wire_ps, b.wire_ps), life);
  v["dram.avg_busy_banks"] =
      ratio(d(a.busy_bank_ticks, b.busy_bank_ticks), d(a.ticks, b.ticks));
  v["dram.ledger_offchip_bytes_per_op"] =
      ratio(d(a.offchip_bytes, b.offchip_bytes), ops);
}

void add_service_delta(layer_values& v,
                       const pim::service::service_stats& before,
                       const pim::service::service_stats& after, double ops,
                       double writes) {
  auto d = [](std::uint64_t x, std::uint64_t y) {
    return static_cast<double>(x - y);
  };
  v["service.enqueue_waits"] = d(after.enqueue_waits, before.enqueue_waits);
  v["service.requests_rejected"] =
      d(after.requests_rejected, before.requests_rejected);
  v["service.requests_failed"] = d(after.requests_failed, before.requests_failed);
  std::size_t depth = 0;
  for (const auto& s : after.shards) depth = std::max(depth, s.peak_queue_depth);
  v["service.peak_queue_depth"] = static_cast<double>(depth);
  v["service.hazard_drains_per_write"] =
      ratio(d(after.hazard_drains, before.hazard_drains), writes);
  v["service.cross_plans"] = d(after.cross_plans, before.cross_plans);
  v["service.staged_bytes_per_op"] =
      ratio(d(after.staged_bytes, before.staged_bytes), ops);
}

double total_ns(const std::map<std::string, span_totals>& spans,
                const std::vector<std::string>& names) {
  double ns = 0;
  for (const std::string& n : names) {
    const auto it = spans.find(n);
    if (it != spans.end()) ns += it->second.total_ns;
  }
  return ns;
}

double ns_per_byte(const std::map<std::string, span_totals>& spans,
                   const std::vector<std::string>& names, double bytes) {
  return ratio(total_ns(spans, names), bytes);
}

double median_ns(const std::map<std::string, span_totals>& spans,
                 const std::string& name) {
  const auto it = spans.find(name);
  return it == spans.end() ? 0.0 : median(it->second.durations_ns);
}

}  // namespace perfbench
