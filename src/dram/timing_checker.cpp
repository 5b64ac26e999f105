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
        bank_state& each = banks_[flat(cmd.addr.rank, bk)];
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
