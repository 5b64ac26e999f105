#include "dram/controller.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "verify/enabled.h"

namespace pim::dram {

namespace {

// counters() names, in controller::counter order.
constexpr const char* kCounterNames[] = {
    "ctrl.requests",   "ctrl.bulk_sequences", "ctrl.row_hits",
    "ctrl.row_misses", "ctrl.row_conflicts",  "ctrl.refresh_pre",
    "dram.act",        "dram.bulk_act",       "dram.copy_act",
    "dram.tra",        "dram.pre",            "dram.bulk_pre",
    "dram.rd",         "dram.bulk_rd",        "dram.wr",
    "dram.bulk_wr",    "dram.ref"};

bool is_column(command_kind kind) {
  return kind == command_kind::read || kind == command_kind::write;
}

bool is_activation(command_kind kind) {
  return kind == command_kind::activate ||
         kind == command_kind::triple_activate;
}

}  // namespace

controller::controller(const organization& org, const timing_params& timing,
                       bool bulk_power_exempt)
    : org_(org),
      timing_(timing),
      checker_(org, timing, bulk_power_exempt),
      locked_(static_cast<std::size_t>(org.ranks) * org.banks, 0),
      refresh_pending_(static_cast<std::size_t>(org.ranks), 0),
      next_refresh_(timing.trefi) {
  static_assert(std::size(kCounterNames) ==
                static_cast<std::size_t>(counter::count_));
}

bool controller::enqueue(request req, const address& at) {
  if (queue_.size() >= queue_capacity) return false;
  queue_.push_back({std::move(req), at});
  count(counter::requests);
  changed();
  return true;
}

void controller::enqueue_bulk(bulk_sequence seq) {
  if (seq.commands.empty()) {
    throw std::invalid_argument("controller: empty bulk sequence");
  }
  bulk_state pb;
  for (const command& cmd : seq.commands) {
    const int flat = flat_bank(cmd.addr);
    if (std::find(pb.banks.begin(), pb.banks.end(), flat) == pb.banks.end()) {
      pb.banks.push_back(flat);
    }
  }
  std::sort(pb.banks.begin(), pb.banks.end());
  pb.seq = std::move(seq);
  bulk_queue_.push_back(std::move(pb));
  count(counter::bulk_sequences);
  changed();
}

counter_set controller::counters() const {
  counter_set out;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] != 0) out.add(kCounterNames[i], counts_[i]);
  }
  return out;
}

void controller::set_locked(const bulk_state& pb, bool locked) {
  for (int flat : pb.banks) locked_[static_cast<std::size_t>(flat)] = locked;
  locked_count_ = locked ? locked_count_ + pb.banks.size()
                         : locked_count_ - pb.banks.size();
}

bool controller::bank_open(int flat) const {
  return checker_.status(flat / org_.banks, flat % org_.banks) ==
         bank_status::active;
}

command controller::precharge_of(int flat) const {
  command pre;
  pre.kind = command_kind::precharge;
  pre.addr.rank = flat / org_.banks;
  pre.addr.bank = flat % org_.banks;
  return pre;
}

bool controller::start_blocked(const bulk_state& pb) const {
  for (int flat : pb.banks) {
    if (bank_locked(flat) ||
        refresh_pending_[static_cast<std::size_t>(flat / org_.banks)]) {
      return true;
    }
  }
  return false;
}

std::optional<command> controller::next_command(
    const pending_request& pr) const {
  if (bank_locked(flat_bank(pr.addr)) ||
      refresh_pending_[static_cast<std::size_t>(pr.addr.rank)]) {
    return std::nullopt;
  }
  command cmd;
  cmd.addr = pr.addr;
  if (checker_.status(pr.addr.rank, pr.addr.bank) == bank_status::precharged) {
    cmd.kind = command_kind::activate;
  } else if (checker_.open_row(pr.addr.rank, pr.addr.bank) == pr.addr.row) {
    cmd.kind = pr.req.kind == request_kind::read ? command_kind::read
                                                 : command_kind::write;
  } else {
    cmd.kind = command_kind::precharge;
  }
  return cmd;
}

template <typename Visit>
bool controller::for_each_refresh_candidate(Visit& visit) const {
  const auto no_bulk = bulk_queue_.end();
  const auto no_request = queue_.end();
  for (int rk = 0; rk < org_.ranks; ++rk) {
    if (!refresh_pending_[static_cast<std::size_t>(rk)]) continue;
    // A held bank stays open until its sequence finishes and releases it.
    bool any_open = false;
    for (int flat = rk * org_.banks; flat < (rk + 1) * org_.banks; ++flat) {
      if (!bank_open(flat)) continue;
      any_open = true;
      if (!bank_locked(flat) &&
          visit(precharge_of(flat), source::refresh_pre, no_bulk,
                no_request)) {
        return true;
      }
    }
    if (any_open) continue;
    command ref;
    ref.kind = command_kind::refresh;
    ref.addr.rank = rk;
    if (visit(ref, source::refresh, no_bulk, no_request)) return true;
  }
  return false;
}

template <typename Visit>
void controller::for_each_candidate(Visit visit) const {
  if (for_each_refresh_candidate(visit)) return;
  const auto no_bulk = bulk_queue_.end();
  const auto no_request = queue_.end();
  for (auto pb = bulk_queue_.begin(); pb != bulk_queue_.end(); ++pb) {
    if (!pb->started) {
      // A held bank or a rank awaiting refresh clears only when some
      // command issues, which is a candidate of its own.
      if (start_blocked(*pb)) continue;
      // Host traffic may have left a row open; the sequence's
      // activations need precharged banks, so close them first.
      bool any_open = false;
      for (int flat : pb->banks) {
        if (!bank_open(flat)) continue;
        any_open = true;
        if (visit(precharge_of(flat), source::bulk_pre, no_bulk,
                  no_request)) {
          return;
        }
      }
      if (any_open) continue;
    }
    if (visit(pb->seq.commands[pb->next], source::bulk, pb, no_request)) {
      return;
    }
  }
  for (const bool row_hits : {true, false}) {
    for (auto pr = queue_.begin(); pr != queue_.end(); ++pr) {
      const std::optional<command> cmd = next_command(*pr);
      if (cmd && is_column(cmd->kind) == row_hits &&
          visit(*cmd, source::request, no_bulk, pr)) {
        return;
      }
    }
  }
}

void controller::place(const command& cmd) {
  checker_.issue(cmd, cycle_);
  switch (cmd.kind) {
    case command_kind::activate:
      count(cmd.bulk ? counter::bulk_act : counter::act);
      break;
    case command_kind::copy_activate:
      count(counter::copy_act);
      break;
    case command_kind::triple_activate:
      count(counter::tra);
      break;
    case command_kind::precharge:
      count(cmd.bulk ? counter::bulk_pre : counter::pre);
      break;
    case command_kind::read:
      count(cmd.bulk ? counter::bulk_rd : counter::rd);
      break;
    case command_kind::write:
      count(cmd.bulk ? counter::bulk_wr : counter::wr);
      break;
    case command_kind::refresh:
      count(counter::ref);
      break;
  }
}

void controller::issue(const command& cmd, source from,
                       std::deque<bulk_state>::iterator pb,
                       std::deque<pending_request>::iterator pr) {
  place(cmd);
  switch (from) {
    case source::refresh_pre:
      count(counter::refresh_pre);
      break;
    case source::refresh:
      refresh_pending_[static_cast<std::size_t>(cmd.addr.rank)] = 0;
      break;
    case source::bulk_pre:
      break;
    case source::bulk:
      if (!pb->started) {
        pb->started = true;
        set_locked(*pb, true);
      }
      if (++pb->next == pb->seq.commands.size()) {
        complete(cmd, std::move(pb->seq.on_complete));
        set_locked(*pb, false);
        bulk_queue_.erase(pb);
      }
      break;
    case source::request:
      // Classify the request by the first command issued for it.
      if (!pr->classified) {
        pr->classified = true;
        count(is_column(cmd.kind)                   ? counter::row_hits
              : cmd.kind == command_kind::activate ? counter::row_misses
                                                   : counter::row_conflicts);
      }
      if (is_column(cmd.kind)) {
        complete(cmd, std::move(pr->req.on_complete));
        queue_.erase(pr);
      }
      break;
  }
}

void controller::complete(const command& cmd,
                          std::function<void(picoseconds)> callback) {
  cycles done = cycle_;
  if (cmd.kind == command_kind::read) done = checker_.read_done(cycle_);
  if (cmd.kind == command_kind::write) done = checker_.write_done(cycle_);
  completions_.push_back({done, std::move(callback)});
}

void controller::finish_completions() {
  for (std::size_t i = 0; i < completions_.size();) {
    if (completions_[i].done <= cycle_) {
      completion c = std::move(completions_[i]);
      completions_[i] = std::move(completions_.back());
      completions_.pop_back();
      if (c.callback) c.callback(c.done * timing_.tck_ps);
    } else {
      ++i;
    }
  }
}

void controller::tick() {
  ++cycle_;
  if (cycle_ >= next_refresh_) {
    next_refresh_ += timing_.trefi;
    std::fill(refresh_pending_.begin(), refresh_pending_.end(), 1);
    changed();
  }
  // One command per cycle on the command bus: the one planned for this
  // cycle, if any. Ticks before a planned cycle issue nothing.
  if (!plan_ || plan_->at < cycle_) plan(cycle_);
  if (plan_->at == cycle_ && plan_->quiet) {
    // A quiet command keeps the run's candidates (a run stopped short
    // of it at the caller's limit or an executor deadline).
    issue_quiet();
  } else if (plan_->at == cycle_) {
    const planned_issue p = *plan_;
    changed();
    if (p.issues) {
      const auto entry = static_cast<std::ptrdiff_t>(p.entry);
      issue(p.cmd, p.from,
            p.from == source::bulk ? bulk_queue_.begin() + entry
                                   : bulk_queue_.end(),
            p.from == source::request ? queue_.begin() + entry
                                      : queue_.end());
    }
  }
  finish_completions();
}

cycles controller::next_event_cycle() const {
  if (!plan_ || plan_->at <= cycle_) {
    if (run_.valid) {
      plan_from_run();
    } else {
      plan(cycle_ + 1);
    }
  }
  return plan_->at;
}

void controller::plan(cycles soon) const {
  // Each candidate's earliest cycle holds until some command issues, a
  // completion lands or the refresh deadline passes. The walk keeps
  // the first candidate with the least earliest cycle, and stops at
  // the first one ready at `soon`: that one issues next.
  cycles first = std::numeric_limits<cycles>::max();
  planned_issue p;
  for_each_candidate([&](const command& cmd, source from, auto pb, auto pr) {
    const cycles at = checker_.earliest(cmd);
    if (at >= first) return false;
    first = at;
    p.cmd = cmd;
    p.from = from;
    p.entry = static_cast<std::size_t>(
        from == source::bulk      ? pb - bulk_queue_.begin()
        : from == source::request ? pr - queue_.begin()
                                  : 0);
    return at <= soon;
  });
  cycles next = std::min(next_refresh_, first);
  for (const completion& c : completions_) next = std::min(next, c.done);
  p.at = std::max(next, soon);
  p.issues = first <= p.at;
  plan_ = p;
}

void controller::collect_refresh_candidates() {
  run_.refresh.clear();
  auto collect = [this](const command& cmd, source from, auto, auto) {
    run_.refresh.push_back({cmd, checker_.earliest(cmd), from});
    return false;
  };
  for_each_refresh_candidate(collect);
}

void controller::collect_run() {
  run_.refresh.clear();
  run_.bulk.clear();
  for_each_candidate([this](const command& cmd, source from, auto pb, auto) {
    if (from == source::refresh_pre || from == source::refresh) {
      run_.refresh.push_back({cmd, checker_.earliest(cmd), from});
    } else if (from == source::bulk_pre) {
      run_.bulk.push_back({cmd, checker_.earliest(cmd), from});
    } else {
      const auto entry = static_cast<std::size_t>(pb - bulk_queue_.begin());
      bulk_state& seq = bulk_queue_[entry];
      run_.bulk.push_back(
          {cmd, checker_.earliest(cmd), from, entry, &seq,
           seq.started && seq.next + 1 < seq.seq.commands.size()});
    }
    return false;
  });
  run_.bound = next_refresh_;
  for (const completion& c : completions_) {
    run_.bound = std::min(run_.bound, c.done);
  }
  run_.valid = true;
}

void controller::plan_from_run() const {
  const cycles soon = cycle_ + 1;
  cycles best = std::numeric_limits<cycles>::max();
  const run_candidate* pick = nullptr;
  // Nothing beats a candidate ready at `soon`: later ones lose the tie.
  for (const run_candidate& c : run_.refresh) {
    if (const cycles key = std::max(c.at, soon); key < best) {
      best = key;
      pick = &c;
      if (key == soon) break;
    }
  }
  bool bulk = false;
  if (best > soon) {
    for (const run_candidate& c : run_.bulk) {
      if (const cycles key = std::max(c.at, soon); key < best) {
        best = key;
        pick = &c;
        bulk = true;
        if (key == soon) break;
      }
    }
  }
  planned_issue p;
  if (pick != nullptr) {
    p.cmd = pick->cmd;
    p.from = pick->from;
    p.entry = pick->entry;
    p.slot = bulk ? static_cast<std::size_t>(pick - run_.bulk.data()) : 0;
    p.quiet = bulk && pick->mid && best < run_.bound;
  }
  p.at = std::min(best, run_.bound);
  p.issues = best <= run_.bound;
#if PIM_VERIFY_ENABLED
  // The walk picks the same command, and a quiet one neither starts
  // nor finishes its sequence.
  plan(soon);
  const bulk_state* seq = p.quiet ? &bulk_queue_[p.entry] : nullptr;
  if (plan_->at != p.at || plan_->issues != p.issues ||
      (p.issues && (plan_->cmd != p.cmd || plan_->from != p.from ||
                    plan_->entry != p.entry)) ||
      (seq != nullptr &&
       (!seq->started || seq->next + 1 == seq->seq.commands.size()))) {
    throw std::logic_error("controller: quiet run disagrees with plan() at "
                           "cycle " + std::to_string(cycle_));
  }
#endif
  plan_ = p;
}

void controller::issue_quiet() {
  run_candidate& own = run_.bulk[plan_->slot];
  cycle_ = plan_->at;
  plan_.reset();
  const command cmd = own.cmd;
  place(cmd);
  bulk_state& pb = *own.seq;
  ++pb.next;
  // Re-compute what this command can move: its sequence's next
  // command; after a RD/WR, every column command (the bus and tWTR);
  // after an activation tRRD/tFAW constrain, the rank's activations;
  // after a row opens or closes in a rank awaiting refresh, the
  // refresh candidates.
  own.cmd = pb.seq.commands[pb.next];
  own.at = checker_.earliest(own.cmd);
  own.mid = pb.next + 1 < pb.seq.commands.size();
  if (is_column(cmd.kind)) {
    for (run_candidate& c : run_.bulk) {
      if (is_column(c.cmd.kind)) c.at = checker_.earliest(c.cmd);
    }
    return;
  }
  if (is_activation(cmd.kind) && checker_.power_constrained(cmd)) {
    for (run_candidate& c : run_.bulk) {
      if (is_activation(c.cmd.kind) && c.cmd.addr.rank == cmd.addr.rank) {
        c.at = checker_.earliest(c.cmd);
      }
    }
  }
  if (cmd.kind != command_kind::copy_activate &&
      refresh_pending_[static_cast<std::size_t>(cmd.addr.rank)]) {
    collect_refresh_candidates();
  }
}

void controller::jump_to(cycles cycle) {
  if (cycle < cycle_) {
    throw std::logic_error("controller::jump_to: the clock runs forward");
  }
  cycle_ = cycle;
}

bool controller::idle() const {
  return queue_.empty() && bulk_queue_.empty() && completions_.empty();
}

}  // namespace pim::dram
