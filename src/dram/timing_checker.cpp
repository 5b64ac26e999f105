#include "dram/timing_checker.h"

#include <algorithm>
#include <stdexcept>

namespace pim::dram {

std::string to_string(command_kind kind) {
  switch (kind) {
    case command_kind::activate: return "ACT";
    case command_kind::precharge: return "PRE";
    case command_kind::read: return "RD";
    case command_kind::write: return "WR";
    case command_kind::refresh: return "REF";
    case command_kind::copy_activate: return "ACTc";
    case command_kind::triple_activate: return "TRA";
  }
  throw std::logic_error("unknown command kind");
}

timing_checker::timing_checker(const organization& org,
                               const timing_params& timing,
                               bool bulk_power_exempt)
    : org_(org),
      timing_(timing),
      bulk_power_exempt_(bulk_power_exempt),
      banks_(static_cast<std::size_t>(org.ranks) * org.banks),
      ranks_(static_cast<std::size_t>(org.ranks)) {}

timing_checker::bank_state& timing_checker::bank(const command& cmd) {
  return banks_[static_cast<std::size_t>(cmd.addr.rank) * org_.banks +
                cmd.addr.bank];
}

const timing_checker::bank_state& timing_checker::bank(
    const command& cmd) const {
  return banks_[static_cast<std::size_t>(cmd.addr.rank) * org_.banks +
                cmd.addr.bank];
}

timing_checker::rank_state& timing_checker::rank(const command& cmd) {
  return ranks_[static_cast<std::size_t>(cmd.addr.rank)];
}

const timing_checker::rank_state& timing_checker::rank(
    const command& cmd) const {
  return ranks_[static_cast<std::size_t>(cmd.addr.rank)];
}

bool timing_checker::power_constrained(const command& cmd) const {
  return !(cmd.bulk && bulk_power_exempt_);
}

bank_status timing_checker::status(int rank_id, int bank_id) const {
  return banks_[static_cast<std::size_t>(rank_id) * org_.banks + bank_id]
      .status;
}

int timing_checker::open_row(int rank_id, int bank_id) const {
  return banks_[static_cast<std::size_t>(rank_id) * org_.banks + bank_id].row;
}

cycles timing_checker::earliest(const command& cmd) const {
  const bank_state& b = bank(cmd);
  const rank_state& r = rank(cmd);
  cycles t = r.next_refresh_done;
  switch (cmd.kind) {
    case command_kind::activate:
    case command_kind::triple_activate: {
      t = std::max(t, b.next_activate);
      if (power_constrained(cmd)) {
        t = std::max(t, r.next_activate);
        if (r.act_window.size() >= 4) {
          t = std::max(t, r.act_window.front() + timing_.tfaw);
        }
      }
      return t;
    }
    case command_kind::copy_activate:
      return std::max(t, b.next_copy_activate);
    case command_kind::precharge:
      return std::max(t, b.next_precharge);
    case command_kind::read: {
      t = std::max({t, b.next_column, r.next_read, next_column_});
      // Ensure the data burst finds the bus free.
      t = std::max(t, bus_free_ - timing_.tcl);
      return t;
    }
    case command_kind::write: {
      t = std::max({t, b.next_column, next_column_});
      t = std::max(t, bus_free_ - timing_.tcwl);
      return t;
    }
    case command_kind::refresh: {
      // All banks of the rank must be precharged; model as: issue no
      // earlier than every bank's precharge has taken effect.
      for (int bk = 0; bk < org_.banks; ++bk) {
        const bank_state& each =
            banks_[static_cast<std::size_t>(cmd.addr.rank) * org_.banks + bk];
        t = std::max(t, each.next_activate);
      }
      return t;
    }
  }
  throw std::logic_error("unknown command kind");
}

void timing_checker::issue(const command& cmd, cycles now) {
  if (now < earliest(cmd)) {
    throw std::logic_error("timing violation issuing " + to_string(cmd.kind) +
                           " at cycle " + std::to_string(now));
  }
  bank_state& b = bank(cmd);
  rank_state& r = rank(cmd);
  switch (cmd.kind) {
    case command_kind::activate:
    case command_kind::triple_activate: {
      if (b.status != bank_status::precharged) {
        throw std::logic_error("ACT to non-precharged bank");
      }
      b.status = bank_status::active;
      b.row = cmd.addr.row;
      b.next_column = now + timing_.trcd;
      b.next_precharge = now + timing_.tras;
      b.next_copy_activate = now + timing_.t_copy_act;
      b.next_activate = now + timing_.trc();
      if (power_constrained(cmd)) {
        r.next_activate = std::max(r.next_activate, now + timing_.trrd);
        r.act_window.push_back(now);
        while (r.act_window.size() > 4) r.act_window.pop_front();
      }
      break;
    }
    case command_kind::copy_activate: {
      if (b.status != bank_status::active) {
        throw std::logic_error("copy-ACT to precharged bank");
      }
      b.row = cmd.addr.row;  // destination row now also holds the data
      const int restore = cmd.conservative ? timing_.tras : timing_.t_extra_act;
      b.next_precharge = std::max(b.next_precharge, now + restore);
      b.next_copy_activate = now + timing_.t_copy_act;
      break;
    }
    case command_kind::precharge: {
      if (b.status != bank_status::active) {
        throw std::logic_error("PRE to precharged bank");
      }
      b.status = bank_status::precharged;
      b.row = -1;
      b.next_activate = std::max(b.next_activate, now + timing_.trp);
      break;
    }
    case command_kind::read: {
      if (b.status != bank_status::active) {
        throw std::logic_error("RD to precharged bank");
      }
      next_column_ = now + timing_.tccd;
      bus_free_ = now + timing_.tcl + timing_.tbl;
      b.next_precharge =
          std::max(b.next_precharge, now + timing_.trtp);
      break;
    }
    case command_kind::write: {
      if (b.status != bank_status::active) {
        throw std::logic_error("WR to precharged bank");
      }
      next_column_ = now + timing_.tccd;
      bus_free_ = now + timing_.tcwl + timing_.tbl;
      const cycles burst_end = now + timing_.tcwl + timing_.tbl;
      b.next_precharge = std::max(b.next_precharge, burst_end + timing_.twr);
      r.next_read = std::max(r.next_read, burst_end + timing_.twtr);
      break;
    }
    case command_kind::refresh: {
      for (int bk = 0; bk < org_.banks; ++bk) {
        bank_state& each =
            banks_[static_cast<std::size_t>(cmd.addr.rank) * org_.banks + bk];
        if (each.status != bank_status::precharged) {
          throw std::logic_error("REF with open bank");
        }
        each.next_activate = std::max(each.next_activate, now + timing_.trfc);
      }
      r.next_refresh_done = now + timing_.trfc;
      break;
    }
  }
}

}  // namespace pim::dram
