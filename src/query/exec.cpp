#include "query/exec.h"

#include <stdexcept>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace pim::query {

namespace {

struct partition_outcome {
  bitvector selection;
  std::vector<std::size_t> sum_pops;  // popcount per sum register
  std::uint64_t ops = 0;
  std::vector<obs::sim_op_sample> samples;  // collect_samples only
};

}  // namespace

struct executor {
  static void gather(pim_table& table, const query_plan& plan,
                     selection_gatherer& g, query_result& result) {
    service::client_api& collector = *g.collector_;
    // Lazily allocate one result slot per partition, sized to match;
    // reject reuse against a different table shape (sessions cannot
    // free vectors, so the slots cannot be re-sized).
    if (g.slots_.empty()) {
      for (int p = 0; p < table.partitions(); ++p) {
        const bits size = table.partition_rows(p);
        const auto slot = collector.allocate(size, 1);
        g.slots_.push_back(slot.at(0));
        g.slot_sizes_.push_back(size);
      }
    }
    if (g.slot_sizes_.size() != static_cast<std::size_t>(table.partitions())) {
      throw std::invalid_argument(
          "selection_gatherer: bound to a different table shape");
    }
    for (int p = 0; p < table.partitions(); ++p) {
      if (g.slot_sizes_[static_cast<std::size_t>(p)] !=
          table.partition_rows(p)) {
        throw std::invalid_argument(
            "selection_gatherer: bound to a different table shape");
      }
    }

    // OR-reduce each partition's selection into its zeroed slot. The
    // operands span sessions (partition -> collector), so each step
    // runs the service's two-phase cross-shard plan; the export read
    // is hazard-ordered behind the partition's compute, so no explicit
    // barrier is needed.
    for (int p = 0; p < table.partitions(); ++p) {
      const auto& slot = g.slots_[static_cast<std::size_t>(p)];
      collector.write(slot, bitvector(table.partition_rows(p), false));
    }
    for (int p = 0; p < table.partitions(); ++p) {
      const auto& slot = g.slots_[static_cast<std::size_t>(p)];
      const service::shared_vector sel =
          table.session(p).share(reg_of(table, plan, p, plan.selection));
      const service::shared_vector dst = collector.share(slot);
      collector.submit_shared(dram::bulk_op::or_op, sel, &dst, dst);
    }
    collector.wait_all();
    result.gathered_digest = collector.digest();
  }

  static const dram::bulk_vector& reg_of(pim_table& table,
                                         const query_plan& plan, int p,
                                         int r) {
    if (r < plan.input_count()) {
      const slice_ref& in = plan.inputs[static_cast<std::size_t>(r)];
      return table.slice(p, in.column, in.bit);
    }
    return table.scratch(p, r - plan.input_count());
  }
};

query_result execute(pim_table& table, const query_plan& plan,
                     const exec_options& opts) {
  if (plan.selection < 0) {
    throw std::invalid_argument("execute: plan has no selection register");
  }
  if (plan.scratch_count > table.scratch_vectors()) {
    throw std::invalid_argument(
        "execute: plan needs " + std::to_string(plan.scratch_count) +
        " scratch vectors, table allocated " +
        std::to_string(table.scratch_vectors()));
  }
  for (const slice_ref& in : plan.inputs) {
    // Resolve once against partition 0 to fail fast on a plan built
    // for a different schema.
    (void)table.slice(0, in.column, in.bit);
  }

  // One thread per partition: submit the whole step storm pipelined,
  // then read back the selection and aggregate masks. Each thread
  // drives only its own session.
  std::vector<partition_outcome> outcomes(
      static_cast<std::size_t>(table.partitions()));
  std::vector<std::exception_ptr> errors(outcomes.size());
  std::vector<std::thread> workers;
  const bool collect = opts.collect_samples;
  for (int p = 0; p < table.partitions(); ++p) {
    workers.emplace_back([&table, &plan, &outcomes, &errors, collect, p] {
      try {
        if (obs::on()) {
          obs::tracer::instance().name_thread(
              "pim-query", "partition " + std::to_string(p));
        }
        obs::span part_span("partition", "query");
        service::client_api& client = table.session(p);
        auto reg = [&](int r) -> const dram::bulk_vector& {
          return executor::reg_of(table, plan, p, r);
        };
        partition_outcome& out = outcomes[static_cast<std::size_t>(p)];
        std::vector<service::request_future> step_futures;
        if (collect) step_futures.reserve(plan.steps.size());
        {
          obs::span steps_span("submit_steps", "query");
          for (const plan_step& step : plan.steps) {
            service::request_future f =
                client.submit_bulk(step.op, reg(step.a),
                                   step.b < 0 ? nullptr : &reg(step.b),
                                   reg(step.d));
            if (collect) step_futures.push_back(std::move(f));
            ++out.ops;
          }
        }
        {
          obs::span wait_span("wait_all", "query");
          client.wait_all();
        }
        if (collect) {
          // Everything completed above; get() is a non-blocking read
          // of each step's report now. The report's sim timestamps
          // and (channel, bank) lane crossed the wire for remote
          // sessions, so the samples are transport-independent.
          const int group = client.shard_index();
          out.samples.reserve(step_futures.size());
          for (std::size_t s = 0; s < step_futures.size(); ++s) {
            out.samples.push_back({group, static_cast<int>(s), p,
                                   step_futures[s].get().report});
          }
        }
        obs::span read_span("read_back", "query");
        out.selection = client.read(reg(plan.selection));
        for (const int r : plan.sum_regs) {
          out.sum_pops.push_back(client.read(reg(r)).popcount());
        }
      } catch (...) {
        errors[static_cast<std::size_t>(p)] = std::current_exception();
      }
    });
  }
  for (std::thread& t : workers) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  query_result result;
  result.rows = table.rows();
  result.selection.resize(table.rows());
  for (int p = 0; p < table.partitions(); ++p) {
    const partition_outcome& out = outcomes[static_cast<std::size_t>(p)];
    result.selection.copy_bits(table.partition_base(p), out.selection, 0,
                               out.selection.size());
    result.ops_submitted += out.ops;
    result.samples.insert(result.samples.end(), out.samples.begin(),
                          out.samples.end());
    if (plan.agg == agg_kind::sum) {
      for (std::size_t b = 0; b < out.sum_pops.size(); ++b) {
        result.sum += static_cast<std::uint64_t>(out.sum_pops[b]) << b;
      }
    }
  }
  result.matches = result.selection.popcount();
  result.digest = fnv1a(fnv1a_basis, result.selection);
  obs::metrics_registry::instance()
      .counter("query.ops_submitted")
      .fetch_add(result.ops_submitted, std::memory_order_relaxed);
  obs::metrics_registry::instance()
      .counter("query.executed")
      .fetch_add(1, std::memory_order_relaxed);

  if (opts.gather != nullptr) {
    executor::gather(table, plan, *opts.gather, result);
  }
  return result;
}

query_result run_query(pim_table& table, const query_spec& spec,
                       const exec_options& opts) {
  return execute(table, plan_query(table.schema(), spec), opts);
}

}  // namespace pim::query
