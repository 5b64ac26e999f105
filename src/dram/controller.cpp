#include "dram/controller.h"

#include <algorithm>
#include <stdexcept>

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

}  // namespace

controller::controller(const organization& org, const timing_params& timing,
                       row_policy policy, bool bulk_power_exempt,
                       std::size_t queue_capacity, mapping_policy mapping)
    : org_(org),
      timing_(timing),
      policy_(policy),
      mapper_(org, mapping),
      checker_(org, timing, bulk_power_exempt),
      queue_capacity_(queue_capacity),
      locked_(static_cast<std::size_t>(org.ranks) * org.banks, 0),
      refresh_pending_(static_cast<std::size_t>(org.ranks), false),
      next_refresh_(timing.trefi) {
  static_assert(std::size(kCounterNames) ==
                static_cast<std::size_t>(counter::count_));
}

bool controller::enqueue(request req) {
  if (queue_.size() >= queue_capacity_) return false;
  pending_request pr;
  pr.addr = mapper_.decode(req.addr);
  if (pr.addr.channel != 0) {
    throw std::invalid_argument(
        "controller: request decoded to a different channel");
  }
  pr.req = std::move(req);
  pr.enqueue_cycle = cycle_;
  queue_.push_back(std::move(pr));
  count(counter::requests);
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

void controller::issue(const command& cmd) {
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

bool controller::try_issue_refresh() {
  for (int rk = 0; rk < org_.ranks; ++rk) {
    if (!refresh_pending_[static_cast<std::size_t>(rk)]) continue;
    // A rank awaiting refresh: precharge its open banks (unless a bulk
    // sequence holds them; the sequence will finish and release them),
    // then issue REF once everything is closed.
    bool any_open = false;
    for (int flat = rk * org_.banks; flat < (rk + 1) * org_.banks; ++flat) {
      if (!bank_open(flat)) continue;
      any_open = true;
      if (bank_locked(flat)) continue;
      const command pre = precharge_of(flat);
      if (checker_.earliest(pre) <= cycle_) {
        issue(pre);
        count(counter::refresh_pre);
        return true;
      }
    }
    if (any_open) continue;
    command ref;
    ref.kind = command_kind::refresh;
    ref.addr.rank = rk;
    if (checker_.earliest(ref) <= cycle_) {
      issue(ref);
      refresh_pending_[static_cast<std::size_t>(rk)] = false;
      return true;
    }
  }
  return false;
}

bool controller::try_issue_bulk() {
  for (std::size_t i = 0; i < bulk_queue_.size(); ++i) {
    bulk_state& pb = bulk_queue_[i];
    if (!pb.started) {
      if (start_blocked(pb)) continue;
      // Host traffic may have left a row open (open-row policy); the
      // sequence's activations need precharged banks, so close them.
      bool any_open = false;
      for (int flat : pb.banks) {
        if (!bank_open(flat)) continue;
        const command pre = precharge_of(flat);
        if (checker_.earliest(pre) <= cycle_) {
          issue(pre);
          return true;
        }
        any_open = true;  // wait for the precharge window
      }
      if (any_open) continue;
    }
    const command& cmd = pb.seq.commands[pb.next];
    if (checker_.earliest(cmd) > cycle_) continue;
    if (!pb.started) {
      pb.started = true;
      set_locked(pb, true);
    }
    issue(cmd);
    ++pb.next;
    if (pb.next == pb.seq.commands.size()) {
      // Completion time: column commands finish after their burst;
      // row commands take effect at issue.
      cycles done = cycle_;
      if (cmd.kind == command_kind::read) done = checker_.read_done(cycle_);
      if (cmd.kind == command_kind::write) done = checker_.write_done(cycle_);
      completion c;
      c.done = done;
      c.callback = std::move(pb.seq.on_complete);
      c.enqueued = cycle_;
      completions_.push_back(std::move(c));
      ++inflight_;
      set_locked(pb, false);
      bulk_queue_.erase(bulk_queue_.begin() +
                        static_cast<std::ptrdiff_t>(i));
    }
    return true;
  }
  return false;
}

std::optional<command> controller::next_command(
    const pending_request& pr) const {
  const int flat = flat_bank(pr.addr);
  if (bank_locked(flat)) return std::nullopt;
  if (refresh_pending_[static_cast<std::size_t>(pr.addr.rank)]) {
    return std::nullopt;  // rank is draining towards REF
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

bool controller::try_issue_request() {
  // FR-FCFS: first pass prefers requests whose next command is a column
  // command (row hit); second pass takes the oldest ready row command.
  for (int pass = 0; pass < 2; ++pass) {
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      auto cmd = next_command(*it);
      if (!cmd) continue;
      const bool is_column = cmd->kind == command_kind::read ||
                             cmd->kind == command_kind::write;
      if (pass == 0 && !is_column) continue;
      if (checker_.earliest(*cmd) > cycle_) continue;
      // Classify the request by the first command issued on its behalf.
      if (!it->classified) {
        it->classified = true;
        if (is_column) {
          count(counter::row_hits);
        } else if (cmd->kind == command_kind::activate) {
          count(counter::row_misses);
        } else {
          count(counter::row_conflicts);
        }
      }
      issue(*cmd);
      if (!is_column) return true;
      const cycles done = cmd->kind == command_kind::read
                              ? checker_.read_done(cycle_)
                              : checker_.write_done(cycle_);
      completion c;
      c.done = done;
      c.callback = std::move(it->req.on_complete);
      c.enqueued = it->enqueue_cycle;
      c.is_read = cmd->kind == command_kind::read;
      completions_.push_back(std::move(c));
      ++inflight_;
      queue_.erase(it);
      return true;
    }
  }
  return false;
}

void controller::finish_completions() {
  for (std::size_t i = 0; i < completions_.size();) {
    if (completions_[i].done <= cycle_) {
      completion c = std::move(completions_[i]);
      completions_[i] = std::move(completions_.back());
      completions_.pop_back();
      --inflight_;
      if (c.is_read) {
        read_latency_ps_.add(
            static_cast<double>((c.done - c.enqueued) * timing_.tck_ps));
      }
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
    for (int rk = 0; rk < org_.ranks; ++rk) {
      refresh_pending_[static_cast<std::size_t>(rk)] = true;
    }
  }
  // One command per cycle on the command bus, in priority order.
  if (!try_issue_refresh()) {
    if (!try_issue_bulk()) {
      try_issue_request();
    }
  }
  finish_completions();
}

cycles controller::next_event_cycle() const {
  // The candidates tick() tries, in the same shapes as try_issue_*:
  // each fixed until some command issues, a completion lands or the
  // refresh deadline passes.
  cycles next = next_refresh_;
  auto candidate = [&](const command& cmd) {
    next = std::min(next, checker_.earliest(cmd));
  };
  for (int rk = 0; rk < org_.ranks; ++rk) {
    if (!refresh_pending_[static_cast<std::size_t>(rk)]) continue;
    bool any_open = false;
    for (int flat = rk * org_.banks; flat < (rk + 1) * org_.banks; ++flat) {
      if (!bank_open(flat)) continue;
      any_open = true;
      if (!bank_locked(flat)) candidate(precharge_of(flat));
    }
    if (!any_open) {
      command ref;
      ref.kind = command_kind::refresh;
      ref.addr.rank = rk;
      candidate(ref);
    }
  }
  for (const bulk_state& pb : bulk_queue_) {
    if (!pb.started) {
      // A held bank or a rank awaiting refresh clears only when a
      // command issues, which is an event of its own.
      if (start_blocked(pb)) continue;
      bool any_open = false;
      for (int flat : pb.banks) {
        if (!bank_open(flat)) continue;
        any_open = true;
        candidate(precharge_of(flat));
      }
      if (any_open) continue;
    }
    candidate(pb.seq.commands[pb.next]);
  }
  for (const pending_request& pr : queue_) {
    if (const auto cmd = next_command(pr)) candidate(*cmd);
  }
  for (const completion& c : completions_) next = std::min(next, c.done);
  return std::max(next, cycle_ + 1);
}

void controller::jump_to(cycles cycle) {
  if (cycle < cycle_) {
    throw std::logic_error("controller::jump_to: the clock runs forward");
  }
  cycle_ = cycle;
}

bool controller::idle() const {
  return queue_.empty() && bulk_queue_.empty() && inflight_ == 0;
}

}  // namespace pim::dram
