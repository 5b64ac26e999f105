#include "query/explain.h"

#include <sstream>

#include "common/json_writer.h"
#include "runtime/task.h"

namespace pim::query {

namespace {

std::string step_label(const query_plan& plan, int index) {
  const plan_step& step = plan.steps[static_cast<std::size_t>(index)];
  std::ostringstream out;
  out << "r" << step.d << " = " << dram::to_string(step.op) << "(r" << step.a;
  if (step.b >= 0) out << ", r" << step.b;
  out << ")";
  return out.str();
}

void cost_to_json(json_writer& json, const obs::op_cost& c) {
  json.key("tasks").value(c.tasks);
  json.key("bytes").value(c.bytes);
  json.key("admission_ticks").value(c.admission_ticks);
  json.key("blocked_ticks").value(c.blocked_ticks);
  json.key("bank_ticks").value(c.bank_ticks);
  json.key("wire_ticks").value(c.wire_ticks);
  json.key("exec_ticks").value(c.exec_ticks);
  json.key("attributed_ticks").value(c.attributed_ticks);
  json.key("energy_pj").value(static_cast<double>(c.energy_fj) / 1000.0);
  json.key("moved_bytes_insitu").value(c.insitu_bytes);
  json.key("moved_bytes_offchip").value(c.offchip_bytes);
  json.key("moved_bytes_wire").value(c.wire_bytes);
}

}  // namespace

explain_result explain_analyze(pim_table& table, const query_plan& plan,
                               const explain_options& opts) {
  explain_result out;
  exec_options exec = opts.exec;
  exec.collect_samples = true;

  const std::uint64_t ticks_before =
      opts.total_ticks ? opts.total_ticks() : 0;
  const std::uint64_t energy_before =
      opts.total_energy_fj ? opts.total_energy_fj() : 0;
  out.result = execute(table, plan, exec);
  if (opts.total_ticks) {
    out.scheduler_ticks_delta = opts.total_ticks() - ticks_before;
    out.checked = true;
  }
  if (opts.total_energy_fj) {
    out.meter_energy_delta_fj = opts.total_energy_fj() - energy_before;
    out.checked_energy = true;
  }

  out.profile = obs::fold_samples(out.result.samples, opts.tick_ps);
  out.exact =
      out.checked &&
      out.scheduler_ticks_delta == out.profile.total_attributed_ticks;
  out.exact_energy = out.checked_energy &&
                     out.meter_energy_delta_fj == out.profile.total_energy_fj;

  // Project the profile onto the plan: one entry per step, in step
  // order, including steps no sample reached (failed partitions are
  // rethrown by execute, so in practice every step has samples).
  out.ops.reserve(plan.steps.size());
  for (std::size_t s = 0; s < plan.steps.size(); ++s) {
    explained_op op;
    op.step = static_cast<int>(s);
    op.label = step_label(plan, op.step);
    auto it = out.profile.by_op.find(op.step);
    if (it != out.profile.by_op.end()) op.cost = it->second;
    out.ops.push_back(std::move(op));
  }
  for (const obs::sim_op_sample& s : out.result.samples) {
    if (s.op >= 0 && s.op < static_cast<int>(out.ops.size())) {
      ++out.ops[static_cast<std::size_t>(s.op)]
            .backend_tasks[static_cast<int>(s.report.where)];
    }
  }

  // Critical path + what-if projections over the same samples. The
  // identity replay (nothing zeroed) must land exactly on the measured
  // window — the self-check that makes the other projections
  // trustworthy lower bounds.
  out.critpath = obs::analyze(out.result.samples);
  for (int w = 0; w <= 5; ++w) {
    out.projected_ps[w] =
        obs::project(out.result.samples, static_cast<obs::wait_state>(w));
  }
  out.projection_identity =
      out.projected_ps[static_cast<int>(obs::wait_state::none)] ==
      out.critpath.window_ps();
  for (const obs::path_segment& seg : out.critpath.segments) {
    if (seg.op >= 0 && seg.op < static_cast<int>(out.ops.size())) {
      out.ops[static_cast<std::size_t>(seg.op)].on_critical_path = true;
    }
  }
  return out;
}

explain_result explain_query(pim_table& table, const query_spec& spec,
                             const explain_options& opts) {
  return explain_analyze(table, plan_query(table.schema(), spec), opts);
}

std::string explain_result::to_string() const {
  std::ostringstream out;
  out << "explain analyze: " << profile.total_tasks << " tasks, "
      << profile.total_attributed_ticks << " attributed ticks";
  if (checked) {
    out << " (scheduler delta " << scheduler_ticks_delta
        << (exact ? ", exact" : ", MISMATCH") << ")";
  }
  out << ", " << static_cast<double>(profile.total_energy_fj) / 1000.0
      << " pJ";
  if (checked_energy) {
    out << " (meter delta "
        << static_cast<double>(meter_energy_delta_fj) / 1000.0
        << (exact_energy ? ", exact" : ", MISMATCH") << ")";
  }
  out << "\n";
  for (const explained_op& op : ops) {
    out << "  step " << op.step << (op.on_critical_path ? "*" : " ") << ": "
        << op.label << "  tasks=" << op.cost.tasks
        << " bytes=" << op.cost.bytes
        << " wait=" << op.cost.admission_ticks << "/"
        << op.cost.blocked_ticks << "/" << op.cost.bank_ticks
        << " (admission/blocked/bank)"
        << " exec_ticks=" << op.cost.exec_ticks
        << " wire_ticks=" << op.cost.wire_ticks
        << " attributed_ticks=" << op.cost.attributed_ticks
        << " energy_pj=" << static_cast<double>(op.cost.energy_fj) / 1000.0
        << " moved=" << op.cost.insitu_bytes << "/"
        << op.cost.offchip_bytes << "/" << op.cost.wire_bytes
        << " (insitu/offchip/wire)";
    for (const auto& [backend, tasks] : op.backend_tasks) {
      out << " "
          << runtime::to_string(static_cast<runtime::backend_kind>(backend))
          << "=" << tasks;
    }
    out << "\n";
  }
  out << "  (* = on the critical path)\n";
  out << "  " << critpath.to_string() << "\n";
  out << "  what-if (projected makespan, ps):";
  for (int w = 0; w <= 5; ++w) {
    out << " " << obs::to_string(static_cast<obs::wait_state>(w)) << "=0 -> "
        << projected_ps[w];
    if (w == 0) out << (projection_identity ? " (identity)" : " (MISMATCH)");
  }
  out << "\n";
  return out.str();
}

void explain_result::to_json(json_writer& json) const {
  json.key("tick_ps").value(profile.tick_ps);
  json.key("total_tasks").value(profile.total_tasks);
  json.key("total_bytes").value(profile.total_bytes);
  json.key("total_attributed_ticks").value(profile.total_attributed_ticks);
  json.key("checked").value(checked);
  json.key("scheduler_ticks_delta").value(scheduler_ticks_delta);
  json.key("exact").value(exact);
  json.key("total_energy_pj")
      .value(static_cast<double>(profile.total_energy_fj) / 1000.0);
  json.key("total_moved_bytes_insitu").value(profile.total_insitu_bytes);
  json.key("total_moved_bytes_offchip").value(profile.total_offchip_bytes);
  json.key("total_moved_bytes_wire").value(profile.total_wire_bytes);
  json.key("checked_energy").value(checked_energy);
  json.key("meter_energy_delta_pj")
      .value(static_cast<double>(meter_energy_delta_fj) / 1000.0);
  json.key("exact_energy").value(exact_energy);
  json.key("matches").value(static_cast<std::uint64_t>(result.matches));
  json.key("digest").value(result.digest);

  json.key("critpath").begin_object();
  json.key("exact").value(critpath.exact);
  json.key("tasks").value(static_cast<std::uint64_t>(critpath.tasks.size()));
  json.key("span_ps").value(critpath.span_ps());
  json.key("window_ps").value(critpath.window_ps());
  json.key("dominant").value(obs::to_string(critpath.dominant()));
  json.key("dominant_pct").value(critpath.dominant_pct());
  json.key("state_ps").begin_object();
  for (int w = 1; w <= 5; ++w) {
    json.key(obs::to_string(static_cast<obs::wait_state>(w)))
        .value(critpath.state_ps[w]);
  }
  json.end_object();
  json.key("segments").begin_array();
  for (const obs::path_segment& seg : critpath.segments) {
    json.begin_object();
    json.key("state").value(obs::to_string(seg.state));
    json.key("task").value(seg.task);
    json.key("step").value(seg.op);
    json.key("from_ps").value(seg.from_ps);
    json.key("to_ps").value(seg.to_ps);
    if (seg.state == obs::wait_state::hazard_blocked) {
      json.key("blocked_on").value(seg.blocked_on);
      json.key("blocked_row").value(seg.blocked_row);
    }
    json.end_object();
  }
  json.end_array();
  json.end_object();

  json.key("whatif_ps").begin_object();
  for (int w = 0; w <= 5; ++w) {
    json.key(obs::to_string(static_cast<obs::wait_state>(w)))
        .value(projected_ps[w]);
  }
  json.end_object();
  json.key("projection_identity").value(projection_identity);

  json.key("group_ticks").begin_object();
  for (const auto& [group, ticks] : profile.group_ticks) {
    json.key(std::to_string(group)).value(ticks);
  }
  json.end_object();

  json.key("ops").begin_array();
  for (const explained_op& op : ops) {
    json.begin_object();
    json.key("step").value(op.step);
    json.key("label").value(op.label);
    cost_to_json(json, op.cost);
    json.key("backends").begin_object();
    for (const auto& [backend, tasks] : op.backend_tasks) {
      json.key(runtime::to_string(static_cast<runtime::backend_kind>(backend)))
          .value(tasks);
    }
    json.end_object();
    json.end_object();
  }
  json.end_array();

  json.key("by_backend").begin_object();
  for (const auto& [backend, cost] : profile.by_backend) {
    json.key(runtime::to_string(static_cast<runtime::backend_kind>(backend)))
        .begin_object();
    cost_to_json(json, cost);
    json.end_object();
  }
  json.end_object();

  json.key("by_lane").begin_array();
  for (const auto& [lane, cost] : profile.by_lane) {
    json.begin_object();
    json.key("channel").value(lane.first);
    json.key("bank").value(lane.second);
    cost_to_json(json, cost);
    json.end_object();
  }
  json.end_array();
}

}  // namespace pim::query
