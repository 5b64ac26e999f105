#include "obs/profile.h"

#include <algorithm>

#include "common/json_writer.h"

namespace pim::obs {

namespace {

/// Deterministic blame order: earliest-submitted first, then program
/// position (op, sub) — "the op that has been waiting longest owns
/// the clock".
struct blame_key {
  std::int64_t submit_ps;
  int op;
  int sub;
  std::size_t idx;

  bool operator<(const blame_key& o) const {
    if (submit_ps != o.submit_ps) return submit_ps < o.submit_ps;
    if (op != o.op) return op < o.op;
    if (sub != o.sub) return sub < o.sub;
    return idx < o.idx;
  }
};

void charge(tick_profile& p, const sim_op_sample& s, std::uint64_t ticks) {
  p.by_op[s.op].attributed_ticks += ticks;
  p.by_backend[static_cast<int>(s.report.where)].attributed_ticks += ticks;
  p.by_lane[{s.report.channel, s.report.bank}].attributed_ticks += ticks;
  p.total_attributed_ticks += ticks;
}

}  // namespace

tick_profile fold_samples(const std::vector<sim_op_sample>& samples,
                          std::int64_t tick_ps) {
  tick_profile p;
  p.tick_ps = tick_ps;
  if (tick_ps <= 0) return p;

  // Per-task sums, independent of overlap.
  const auto to_ticks = [tick_ps](std::int64_t ps) {
    return static_cast<std::uint64_t>(ps / tick_ps);
  };
  for (const sim_op_sample& s : samples) {
    const runtime::task_report& r = s.report;
    const runtime::task_report::segments seg = r.lifetime();
    for (op_cost* c :
         {&p.by_op[s.op], &p.by_backend[static_cast<int>(r.where)],
          &p.by_lane[{r.channel, r.bank}]}) {
      c->tasks += 1;
      c->bytes += r.output_bytes;
      c->admission_ticks += to_ticks(seg.admission);
      c->blocked_ticks += to_ticks(seg.hazard);
      c->bank_ticks += to_ticks(seg.bank);
      c->exec_ticks += to_ticks(seg.exec + seg.wire);
      c->wire_ticks += to_ticks(seg.wire);
      c->energy_fj += r.energy_fj;
      c->insitu_bytes += r.insitu_bytes;
      c->offchip_bytes += r.offchip_bytes;
      c->wire_bytes += r.wire_bytes;
    }
    p.total_tasks += 1;
    p.total_bytes += r.output_bytes;
    p.total_energy_fj += r.energy_fj;
    p.total_insitu_bytes += r.insitu_bytes;
    p.total_offchip_bytes += r.offchip_bytes;
    p.total_wire_bytes += r.wire_bytes;
  }

  // Exact busy-union attribution, one sweep per simulated clock.
  std::map<int, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (samples[i].report.complete_ps > samples[i].report.submit_ps) {
      groups[samples[i].group].push_back(i);
    }
  }
  for (const auto& [group, members] : groups) {
    // Boundary points of every member's [submit, complete) interval.
    std::vector<std::int64_t> points;
    points.reserve(members.size() * 2);
    for (std::size_t i : members) {
      points.push_back(samples[i].report.submit_ps);
      points.push_back(samples[i].report.complete_ps);
    }
    std::sort(points.begin(), points.end());
    points.erase(std::unique(points.begin(), points.end()), points.end());

    // Sweep: at each point close expired intervals, open new ones,
    // then blame the elementary interval up to the next point on the
    // minimum-key active member.
    std::vector<std::size_t> by_submit = members;
    std::sort(by_submit.begin(), by_submit.end(),
              [&](std::size_t a, std::size_t b) {
                return samples[a].report.submit_ps <
                       samples[b].report.submit_ps;
              });
    std::size_t opened = 0;
    std::vector<blame_key> active;  // heap, min at front via pop order
    auto cmp = [](const blame_key& a, const blame_key& b) { return b < a; };
    std::uint64_t group_ticks = 0;
    for (std::size_t pi = 0; pi + 1 < points.size(); ++pi) {
      const std::int64_t lo = points[pi];
      const std::int64_t hi = points[pi + 1];
      while (opened < by_submit.size() &&
             samples[by_submit[opened]].report.submit_ps <= lo) {
        const sim_op_sample& s = samples[by_submit[opened]];
        active.push_back(
            {s.report.submit_ps, s.op, s.sub, by_submit[opened]});
        std::push_heap(active.begin(), active.end(), cmp);
        ++opened;
      }
      // Lazily drop expired blame candidates.
      while (!active.empty() &&
             samples[active.front().idx].report.complete_ps <= lo) {
        std::pop_heap(active.begin(), active.end(), cmp);
        active.pop_back();
      }
      if (active.empty()) continue;  // idle gap: the clock stood still
      const std::uint64_t ticks = to_ticks(hi - lo);
      charge(p, samples[active.front().idx], ticks);
      group_ticks += ticks;
    }
    p.group_ticks[group] = group_ticks;
  }
  return p;
}

// --- slow-request log ------------------------------------------------------

std::pair<const char*, int> slow_request::dominant_wait() const {
  const std::int64_t lifetime = report.complete_ps - report.admit_ps;
  if (lifetime <= 0) return {"none", 0};
  const runtime::task_report::segments seg = report.lifetime();
  const std::pair<const char*, std::int64_t> segments[] = {
      {"admission", seg.admission},
      {"hazard", seg.hazard},
      {"bank", seg.bank},
      {report.wire_hop ? "wire" : "exec", seg.exec + seg.wire},
  };
  const auto* best = &segments[0];
  for (const auto& s : segments) {
    if (s.second > best->second) best = &s;
  }
  return {best->first,
          static_cast<int>(best->second * 100 / lifetime)};
}

slow_request_log& slow_request_log::instance() {
  static slow_request_log log;
  return log;
}

void slow_request_log::set_capacity(std::size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = n;
  while (ring_.size() > capacity_) ring_.pop_front();
}

void slow_request_log::observe(slow_request r) {
  observed_.fetch_add(1, std::memory_order_relaxed);
  if (r.spans.empty() && tracer::instance().enabled() && r.flow != 0) {
    // Tail-based capture: only requests that already proved slow pay
    // for a buffer scan.
    for (const trace_event& e : tracer::instance().snapshot()) {
      if (e.flow == r.flow) r.spans.push_back(e);
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (capacity_ == 0) return;
  while (ring_.size() >= capacity_) ring_.pop_front();
  ring_.push_back(std::move(r));
}

std::vector<slow_request> slow_request_log::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {ring_.begin(), ring_.end()};
}

void slow_request_log::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
}

void slow_request_log::to_json(json_writer& json) const {
  json.key("threshold_ns").value(static_cast<std::int64_t>(threshold_ns()));
  json.key("observed").value(observed());
  std::vector<slow_request> snap = entries();
  json.key("entries").begin_array();
  for (const slow_request& r : snap) {
    json.begin_object();
    json.key("flow").value(r.flow);
    json.key("session").value(r.session);
    json.key("shard").value(r.shard);
    json.key("kind").value(r.kind);
    json.key("latency_ns").value(r.latency_ns);
    const runtime::task_report& t = r.report;
    json.key("backend").value(static_cast<int>(t.where));
    json.key("output_bytes").value(t.output_bytes);
    json.key("admit_ps").value(t.admit_ps);
    json.key("submit_ps").value(t.submit_ps);
    json.key("release_ps").value(t.release_ps);
    json.key("start_ps").value(t.start_ps);
    json.key("complete_ps").value(t.complete_ps);
    json.key("blocked_on").value(t.blocked_on);
    json.key("blocked_row").value(t.blocked_row);
    json.key("wire_hop").value(t.wire_hop);
    // One-line critical-path summary, ready to grep:
    // "dominant_wait=<state> pct=<n>".
    const auto [state, pct] = r.dominant_wait();
    json.key("dominant_wait").value(state);
    json.key("dominant_wait_pct").value(pct);
    json.key("summary").value(std::string("dominant_wait=") + state +
                              " pct=" + std::to_string(pct));
    json.key("spans").begin_array();
    for (const trace_event& e : r.spans) {
      json.begin_object();
      json.key("name").value(e.name != nullptr ? e.name : "");
      json.key("cat").value(e.cat != nullptr ? e.cat : "");
      json.key("kind").value(static_cast<int>(e.kind));
      json.key("ts").value(e.ts);
      json.key("dur").value(e.dur);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
}

}  // namespace pim::obs
