#include "dram/memory_system.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/energy_constants.h"

namespace pim::dram {

memory_system::memory_system(const organization& org,
                             const timing_params& timing,
                             bool bulk_power_exempt)
    : org_(org),
      timing_(timing),
      mapper_(org, mapping_policy::row_bank_column),
      zero_row_(org.row_bits()) {
  organization channel_org = org;
  channel_org.channels = 1;
  channels_.reserve(static_cast<std::size_t>(org.channels));
  for (int c = 0; c < org.channels; ++c) {
    channels_.push_back(
        std::make_unique<controller>(channel_org, timing, bulk_power_exempt));
  }
}

bool memory_system::enqueue(request req) {
  const address at = mapper_.decode(req.addr);
  return channels_[static_cast<std::size_t>(at.channel)]->enqueue(
      std::move(req), at);
}

void memory_system::enqueue_bulk(int channel, bulk_sequence seq) {
  channels_[static_cast<std::size_t>(channel)]->enqueue_bulk(std::move(seq));
}

void memory_system::tick() {
  for (auto& ch : channels_) ch->tick();
}

cycles memory_system::next_event_cycle() const {
  cycles next = std::numeric_limits<cycles>::max();
  for (const auto& ch : channels_) {
    next = std::min(next, ch->next_event_cycle());
  }
  return next;
}

void memory_system::jump_to(cycles cycle) {
  for (auto& ch : channels_) ch->jump_to(cycle);
}

cycles memory_system::drain(cycles max_cycles) {
  const cycles start = now_cycles();
  const cycles limit = start + max_cycles;
  while (!idle() && now_cycles() < limit) {
    jump_to(std::min(next_event_cycle(), limit) - 1);
    tick();
  }
  if (!idle()) {
    throw std::runtime_error("memory_system::drain: work did not drain");
  }
  return now_cycles() - start;
}

bool memory_system::idle() const {
  for (const auto& ch : channels_) {
    if (!ch->idle()) return false;
  }
  return true;
}

picoseconds memory_system::now_ps() const { return channels_[0]->now_ps(); }
cycles memory_system::now_cycles() const {
  return channels_[0]->now_cycles();
}

counter_set memory_system::counters() const {
  counter_set merged;
  for (const auto& ch : channels_) merged.merge(ch->counters());
  return merged;
}

std::size_t memory_system::busy_banks() const {
  std::size_t busy = 0;
  for (const auto& ch : channels_) busy += ch->busy_banks();
  return busy;
}

std::uint64_t memory_system::row_key(const address& a) const {
  std::uint64_t key = static_cast<std::uint64_t>(a.channel);
  key = key * static_cast<std::uint64_t>(org_.ranks) +
        static_cast<std::uint64_t>(a.rank);
  key = key * static_cast<std::uint64_t>(org_.banks) +
        static_cast<std::uint64_t>(a.bank);
  key = key * static_cast<std::uint64_t>(org_.rows) +
        static_cast<std::uint64_t>(a.row);
  return key;
}

bitvector& memory_system::row(const address& a) {
  auto [it, inserted] = rows_.try_emplace(row_key(a), org_.row_bits());
  return it->second;
}

const bitvector& memory_system::row_or_zero(const address& a) const {
  auto it = rows_.find(row_key(a));
  return it == rows_.end() ? zero_row_ : it->second;
}

bool memory_system::row_materialized(const address& a) const {
  return rows_.count(row_key(a)) != 0;
}

dram_energy compute_dram_energy(const counter_set& c, const organization& org,
                                picoseconds elapsed, double io_pj_per_bit,
                                double background_mw_per_rank) {
  namespace ec = pim::energy;
  if (background_mw_per_rank < 0.0) {
    background_mw_per_rank = ec::dram_background_mw;
  }
  dram_energy e;
  const double acts = static_cast<double>(c.get("dram.act") +
                                          c.get("dram.bulk_act") +
                                          c.get("dram.copy_act"));
  // A triple-row activation restores three rows' worth of charge.
  const double tras = static_cast<double>(c.get("dram.tra"));
  e.activate = acts * ec::dram_activate_pj + tras * 3.0 * ec::dram_activate_pj;
  e.precharge = static_cast<double>(c.get("dram.pre") + c.get("dram.bulk_pre")) *
                ec::dram_precharge_pj;
  const double cols = static_cast<double>(c.get("dram.rd") + c.get("dram.wr") +
                                          c.get("dram.bulk_rd") +
                                          c.get("dram.bulk_wr"));
  e.column = cols * ec::dram_column_pj;
  // Only host-visible column commands drive the channel pins; bulk
  // (in-DRAM) column transfers stay on the internal bus.
  const double io_bits = static_cast<double>(c.get("dram.rd") +
                                             c.get("dram.wr")) *
                         static_cast<double>(org.column_bytes) * 8.0;
  e.channel_io = io_bits * io_pj_per_bit;
  // One REF refreshes rows/8192 rows in every bank of a rank.
  const double rows_per_ref =
      static_cast<double>(org.rows) / 8192.0 * static_cast<double>(org.banks);
  e.refresh = static_cast<double>(c.get("dram.ref")) * rows_per_ref *
              ec::dram_refresh_row_pj;
  // 1 mW = 1e-3 J/s = 1e-3 pJ/ps, so energy_pJ = mW * 1e-3 * elapsed_ps.
  e.background = background_mw_per_rank * 1e-3 *
                 static_cast<double>(org.ranks * org.channels) *
                 static_cast<double>(elapsed);
  return e;
}

}  // namespace pim::dram
