// Per-layer metric helpers shared by the workloads: DRAM command
// counters, runtime scheduler deltas, and the service totals read at
// the boundaries of the traced phase.
#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include "common/stats.h"
#include "core/pim_system.h"
#include "harness.h"
#include "runtime/runtime.h"
#include "service/service.h"

namespace perfbench {

/// One service shard's simulated stack in wire_rw and scan_query:
/// 1 channel x 8 banks x 8 subarrays x 1024 rows of 8 KiB.
pim::core::pim_system_config shard_config();

/// The service-wide runtime stats add_runtime_delta reads: the
/// service's own aggregates, plus per-backend task counts and the
/// largest shard's in-flight peak.
pim::runtime::runtime_stats total_runtime(
    const pim::service::service_stats& stats);

/// DRAM cycles of a service snapshot, summed over shards.
double shard_cycles(const pim::service::service_stats& stats,
                    pim::picoseconds tck_ps);

/// dram.tra_per_op, dram.act_per_op and dram.row_hit_ratio from a
/// memory counter delta over `ops` ops.
void add_dram_commands(layer_values& v, const pim::counter_set& before,
                       const pim::counter_set& after, double ops);

/// runtime.tasks_*, hazard_deferred_ratio, peak_in_flight, the wait
/// shares, dram.avg_busy_banks and dram.ledger_offchip_bytes_per_op
/// from a runtime stats delta over `ops` ops.
void add_runtime_delta(layer_values& v,
                       const pim::runtime::runtime_stats& before,
                       const pim::runtime::runtime_stats& after, double ops);

/// service.enqueue_waits, requests_rejected, requests_failed,
/// peak_queue_depth, cross_plans and staged_bytes_per_op from a
/// service stats delta; hazard_drains_per_write divides by `writes`.
void add_service_delta(layer_values& v,
                       const pim::service::service_stats& before,
                       const pim::service::service_stats& after, double ops,
                       double writes);

/// Total time and bytes of the named spans, as ns per byte.
double ns_per_byte(const std::map<std::string, span_totals>& spans,
                   const std::vector<std::string>& names, double bytes);

/// Total inclusive ns of the named spans.
double total_ns(const std::map<std::string, span_totals>& spans,
                const std::vector<std::string>& names);

/// Median duration (ns) of the named span; 0 if never recorded.
double median_ns(const std::map<std::string, span_totals>& spans,
                 const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H
