#include "obs/critpath.h"

#include <algorithm>
#include <map>
#include <sstream>

namespace pim::obs {

namespace {

/// (group, id) -> sample index. Task ids are per-scheduler, so hazard
/// edges never cross groups; chaining must not either.
std::map<std::pair<int, std::uint64_t>, std::size_t> index_samples(
    const std::vector<sim_op_sample>& samples) {
  std::map<std::pair<int, std::uint64_t>, std::size_t> by_id;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const sim_op_sample& s = samples[i];
    if (s.report.id != 0) {
      by_id.emplace(std::make_pair(s.group, s.report.id), i);
    }
  }
  return by_id;
}

/// The release edge is real only when the blocker is in the sample
/// set and completed at the exact instant the dependent was released
/// — the invariant the scheduler stamps (both sides of the edge are
/// written at the same mem_.now_ps()).
const sim_op_sample* edge_blocker(
    const std::vector<sim_op_sample>& samples,
    const std::map<std::pair<int, std::uint64_t>, std::size_t>& by_id,
    const sim_op_sample& s) {
  if (s.report.blocked_on == 0) return nullptr;
  const auto it = by_id.find({s.group, s.report.blocked_on});
  if (it == by_id.end()) return nullptr;
  const sim_op_sample& blocker = samples[it->second];
  return blocker.report.complete_ps == s.report.release_ps ? &blocker
                                                           : nullptr;
}

void add_segment(critpath_report& r, wait_state state,
                 const sim_op_sample& s, std::int64_t from,
                 std::int64_t to) {
  if (to <= from) return;  // zero-length states leave no slice
  path_segment seg;
  seg.state = state;
  seg.task = s.report.id;
  seg.op = s.op;
  seg.from_ps = from;
  seg.to_ps = to;
  if (state == wait_state::hazard_blocked) {
    seg.blocked_on = s.report.blocked_on;
    seg.blocked_row = s.report.blocked_row;
  }
  r.segments.push_back(seg);
  r.state_ps[static_cast<int>(state)] +=
      static_cast<std::uint64_t>(to - from);
}

}  // namespace

const char* to_string(wait_state s) {
  switch (s) {
    case wait_state::none:
      return "none";
    case wait_state::admission_queued:
      return "admission_queued";
    case wait_state::hazard_blocked:
      return "hazard_blocked";
    case wait_state::bank_busy:
      return "bank_busy";
    case wait_state::executing:
      return "executing";
    case wait_state::wire:
      return "wire";
  }
  return "none";
}

wait_state critpath_report::dominant() const {
  wait_state best = wait_state::none;
  std::uint64_t best_ps = 0;
  for (int i = 1; i <= 5; ++i) {
    if (state_ps[i] > best_ps) {
      best_ps = state_ps[i];
      best = static_cast<wait_state>(i);
    }
  }
  return best;
}

int critpath_report::dominant_pct() const {
  const std::int64_t span = span_ps();
  if (span <= 0) return 0;
  return static_cast<int>(
      static_cast<std::int64_t>(state_ps[static_cast<int>(dominant())]) *
      100 / span);
}

std::string critpath_report::to_string() const {
  std::ostringstream out;
  out << "critical path: " << tasks.size() << " task(s), span " << span_ps()
      << " ps of " << window_ps() << " ps window, dominant "
      << obs::to_string(dominant()) << " " << dominant_pct() << "%"
      << (exact ? " (exact)" : " (INEXACT)");
  for (int i = 1; i <= 5; ++i) {
    if (state_ps[i] == 0) continue;
    out << "\n  " << obs::to_string(static_cast<wait_state>(i)) << " "
        << state_ps[i] << " ps";
  }
  return out.str();
}

critpath_report analyze(const std::vector<sim_op_sample>& samples) {
  critpath_report r;
  if (samples.empty()) {
    r.exact = true;  // vacuously: an empty span has an empty partition
    return r;
  }
  const auto by_id = index_samples(samples);

  // Request window + the last-completing sample (ties: lowest
  // (group, id), so any permutation of the input analyzes
  // identically).
  const sim_op_sample* last = &samples.front();
  r.window_start_ps = samples.front().report.admit_ps;
  r.window_end_ps = samples.front().report.complete_ps;
  for (const sim_op_sample& s : samples) {
    r.window_start_ps = std::min(r.window_start_ps, s.report.admit_ps);
    r.window_end_ps = std::max(r.window_end_ps, s.report.complete_ps);
    if (s.report.complete_ps > last->report.complete_ps ||
        (s.report.complete_ps == last->report.complete_ps &&
         std::make_pair(s.group, s.report.id) <
             std::make_pair(last->group, last->report.id))) {
      last = &s;
    }
  }

  // Backward walk through the release edges: each hop's blocker
  // completed at the exact instant the hop was released, so the chain
  // is contiguous in simulated time.
  std::vector<const sim_op_sample*> chain{last};
  while (chain.size() <= samples.size()) {  // bound: defends malformed input
    const sim_op_sample* blocker =
        edge_blocker(samples, by_id, *chain.back());
    if (blocker == nullptr) break;
    chain.push_back(blocker);
  }
  std::reverse(chain.begin(), chain.end());  // root first

  // Forward decomposition. The chain root owns its whole lifetime
  // (its hazard wait, if any, was against a task outside this sample
  // set — e.g. another request — and is genuine path wait). Every
  // later hop starts at its release instant: the time before that is
  // the blocker's, already on the path.
  r.path_start_ps = chain.front()->report.admit_ps;
  r.path_end_ps = last->report.complete_ps;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const sim_op_sample& s = *chain[i];
    const runtime::task_report& t = s.report;
    r.tasks.push_back(t.id);
    if (i == 0) {
      add_segment(r, wait_state::admission_queued, s, t.admit_ps,
                  t.submit_ps);
      add_segment(r, wait_state::hazard_blocked, s, t.submit_ps,
                  t.release_ps);
    }
    add_segment(r, wait_state::bank_busy, s, t.release_ps, t.start_ps);
    add_segment(r, t.wire_hop ? wait_state::wire : wait_state::executing,
                s, t.start_ps, t.complete_ps);
  }

  // Exactness: the typed slices must tile [path_start, path_end] —
  // contiguous, non-negative, summing to the span with zero
  // remainder. Holds by construction; verified here so downstream
  // gates can trust `exact` instead of re-deriving it.
  std::int64_t covered = 0;
  std::int64_t cursor = r.path_start_ps;
  bool contiguous = true;
  for (const path_segment& seg : r.segments) {
    if (seg.from_ps != cursor || seg.to_ps < seg.from_ps) {
      contiguous = false;
    }
    covered += seg.duration_ps();
    cursor = seg.to_ps;
  }
  if (cursor != r.path_end_ps) contiguous = false;
  r.exact = contiguous && covered == r.span_ps();
  return r;
}

std::int64_t project(const std::vector<sim_op_sample>& samples,
                     wait_state zeroed) {
  if (samples.empty()) return 0;
  const auto by_id = index_samples(samples);

  // Topological order for the replay: a hazard edge always points at
  // an earlier-submitted task of the same scheduler, so ascending
  // (group, id) visits every blocker before its dependents.
  std::vector<std::size_t> order(samples.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return std::make_pair(samples[a].group, samples[a].report.id) <
           std::make_pair(samples[b].group, samples[b].report.id);
  });

  std::vector<std::int64_t> projected(samples.size(), 0);
  std::int64_t window_start = samples.front().report.admit_ps;
  std::int64_t best = 0;
  for (const sim_op_sample& s : samples) {
    window_start = std::min(window_start, s.report.admit_ps);
  }
  for (std::size_t i : order) {
    const sim_op_sample& s = samples[i];
    const runtime::task_report::segments seg = s.report.lifetime();
    const std::int64_t admission =
        zeroed == wait_state::admission_queued ? 0 : seg.admission;
    const std::int64_t ready = s.report.admit_ps + admission;
    std::int64_t proj_release;
    const sim_op_sample* blocker = edge_blocker(samples, by_id, s);
    if (zeroed == wait_state::hazard_blocked) {
      proj_release = ready;
    } else if (blocker != nullptr) {
      const auto it = by_id.find({s.group, s.report.blocked_on});
      proj_release = std::max(ready, projected[it->second]);
    } else {
      // No resolvable edge: keep the measured hazard wait as an
      // opaque duration (it cannot shrink without knowing the
      // blocker, and keeping it preserves the identity replay).
      proj_release = ready + seg.hazard;
    }
    const std::int64_t bank = zeroed == wait_state::bank_busy ? 0 : seg.bank;
    const std::int64_t exec =
        (zeroed == wait_state::executing ? 0 : seg.exec) +
        (zeroed == wait_state::wire ? 0 : seg.wire);
    projected[i] = proj_release + bank + exec;
    best = std::max(best, projected[i] - window_start);
  }
  return best;
}

}  // namespace pim::obs
