// Multi-channel DRAM memory system facade.
//
// Owns one controller per channel, routes requests by address, advances
// all channels in lockstep, and holds the functional row store that the
// in-DRAM compute engines (RowClone, Ambit) and the database layer
// operate on.
#ifndef PIM_DRAM_MEMORY_SYSTEM_H
#define PIM_DRAM_MEMORY_SYSTEM_H

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/bitvector.h"
#include "common/stats.h"
#include "dram/controller.h"

namespace pim::dram {

class memory_system {
 public:
  /// Host addresses decode with mapping_policy::row_bank_column.
  memory_system(const organization& org, const timing_params& timing,
                bool bulk_power_exempt = true);

  /// Decodes the request's address and routes it to its channel; false
  /// when that channel's queue is full.
  bool enqueue(request req);

  /// Enqueues a bulk command sequence on the channel all its commands
  /// target (they must agree).
  void enqueue_bulk(int channel, bulk_sequence seq);

  /// Advances every channel by one DRAM clock.
  void tick();

  /// Earliest cycle at which tick() could change any channel's state
  /// (controller::next_event_cycle, minimum over channels).
  cycles next_event_cycle() const;

  /// Moves every channel clock to `cycle` together, without ticking;
  /// the cycles passed over must hold no event.
  void jump_to(cycles cycle);

  /// Advances until all channels are idle or `max_cycles` elapses,
  /// ticking only event cycles; returns the number of cycles advanced.
  cycles drain(cycles max_cycles = 100'000'000);

  bool idle() const;

  picoseconds now_ps() const;
  cycles now_cycles() const;

  const organization& org() const { return org_; }
  const timing_params& timing() const { return timing_; }
  const address_mapper& mapper() const { return mapper_; }
  controller& channel(int i) { return *channels_[static_cast<std::size_t>(i)]; }
  const controller& channel(int i) const {
    return *channels_[static_cast<std::size_t>(i)];
  }

  /// Aggregated counters across channels.
  counter_set counters() const;

  /// Banks currently locked by in-flight bulk sequences, across all
  /// channels — the instantaneous bank-level parallelism a scheduler
  /// is extracting.
  std::size_t busy_banks() const;

  // --- functional row store -------------------------------------------
  // Rows are materialized lazily, zero-filled (DRAM after initialization
  // scrub). The in-DRAM engines and tests read and write whole rows.

  bitvector& row(const address& a);
  const bitvector& row_or_zero(const address& a) const;
  bool row_materialized(const address& a) const;

  /// Flat identity of a (channel, rank, bank, row) — the key the row
  /// store indexes by; also what a scheduler tracks hazards against.
  std::uint64_t row_key(const address& a) const;

 private:
  organization org_;
  timing_params timing_;
  address_mapper mapper_;
  std::vector<std::unique_ptr<controller>> channels_;
  std::unordered_map<std::uint64_t, bitvector> rows_;
  bitvector zero_row_;
};

/// DRAM energy broken into components, in picojoules.
struct dram_energy {
  picojoules activate = 0;
  picojoules precharge = 0;
  picojoules column = 0;
  picojoules channel_io = 0;
  picojoules refresh = 0;
  picojoules background = 0;

  picojoules total() const {
    return activate + precharge + column + channel_io + refresh + background;
  }
};

/// Computes energy from a counter set produced by controllers.
/// `io_pj_per_bit` selects the interface (off-chip DDR, LPDDR, TSV);
/// `background_mw_per_rank` the device's standby power (a DIMM rank is
/// ~80 mW, a stacked vault channel far less).
dram_energy compute_dram_energy(const counter_set& counters,
                                const organization& org, picoseconds elapsed,
                                double io_pj_per_bit,
                                double background_mw_per_rank = -1.0);

}  // namespace pim::dram

#endif  // PIM_DRAM_MEMORY_SYSTEM_H
