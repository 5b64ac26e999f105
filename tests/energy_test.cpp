// Tests for the live energy meter (obs/energy.h): per-kind pricing
// against the closed-form constants, the integer-femtojoule exactness
// discipline through the profile fold, the scheduler's meter vs the
// per-task report charges, metering-off transparency, the done frame's
// energy fields, and the per-shard gauge snapshot published atomically
// with the service stats (the publish-on-demand coherence contract).
#include <cstdint>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/energy_constants.h"
#include "core/pim_system.h"
#include "dram/subarray_layout.h"
#include "net/protocol.h"
#include "obs/energy.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "service/client.h"

namespace pim::obs {
namespace {

namespace ec = pim::energy;
using runtime::backend_kind;
using runtime::task_kind;

dram::organization small_org() {
  dram::organization org;
  org.channels = 1;
  org.ranks = 1;
  org.banks = 4;
  org.subarrays = 4;
  org.rows = 256;
  org.columns = 16;
  return org;
}

core::pim_system_config small_config() {
  core::pim_system_config cfg;
  cfg.org = small_org();
  return cfg;
}

/// One activation for `org`, scaled to its row size like the model
/// and the analytic ambit_device scale it.
double act_pj(const dram::organization& org) {
  return ec::dram_activate_pj *
         (static_cast<double>(org.row_bytes()) / 8192.0);
}

/// The streaming per-byte cost the model amortizes per cache line —
/// recomputed independently here so a formula change in energy.cpp
/// trips the pin.
double streaming_pj(const dram::organization& org, bytes moved,
                    double io_pj_per_bit) {
  const double lines_per_row = static_cast<double>(org.row_bytes()) /
                               static_cast<double>(org.column_bytes);
  const double line_pj =
      (act_pj(org) + ec::dram_precharge_pj) / lines_per_row +
      ec::dram_column_pj +
      static_cast<double>(org.column_bytes) * 8.0 * io_pj_per_bit;
  return static_cast<double>(moved) /
         static_cast<double>(org.column_bytes) * line_pj;
}

// ---------------------------------------------------------------------------
// to_fj: the single rounding that makes downstream sums exact
// ---------------------------------------------------------------------------

TEST(ToFjTest, RoundsHalfUpAndClampsNegative) {
  EXPECT_EQ(to_fj(0.0), 0u);
  EXPECT_EQ(to_fj(-3.0), 0u);
  EXPECT_EQ(to_fj(1.0), 1000u);
  EXPECT_EQ(to_fj(0.0004), 0u);   // 0.4 fJ rounds down
  EXPECT_EQ(to_fj(0.0006), 1u);   // 0.6 fJ rounds up
  EXPECT_EQ(to_fj(0.0005), 1u);   // half rounds up
}

// ---------------------------------------------------------------------------
// energy_model pricing: each task kind against the closed form
// ---------------------------------------------------------------------------

TEST(EnergyModelTest, AmbitBulkChargesPerRowGroupSchedule) {
  const dram::organization org = small_org();
  const energy_model model(org, /*rich_decoder=*/false);

  runtime::bulk_bool_args args;
  args.op = dram::bulk_op::and_op;
  args.d.size = 2 * org.row_bytes() * 8;
  args.d.rows.resize(2);  // two row groups -> two schedules
  runtime::pim_task task;
  task.payload = args;
  runtime::task_report r;
  r.where = backend_kind::ambit;

  // Independent count of AAP macro steps and TRAs for the op.
  const dram::ambit_compiler compiler(org, /*rich_decoder=*/false);
  const dram::subarray_layout layout(org);
  int steps = compiler.step_count(dram::bulk_op::and_op);
  int tras = 0;
  for (const dram::ambit_step& s :
       compiler.compile(dram::bulk_op::and_op, 0, layout.data_row(0, 0),
                        layout.data_row(0, 1), layout.data_row(0, 2))) {
    if (s.tra) ++tras;
  }
  ASSERT_GT(steps, 0);
  ASSERT_GT(tras, 0);

  const double act = act_pj(org);
  const double per_schedule =
      static_cast<double>(steps - tras) * (act + act + ec::dram_precharge_pj) +
      static_cast<double>(tras) * (3.0 * act + act + ec::dram_precharge_pj);

  const task_energy e = model.charge(task, r);
  EXPECT_EQ(e.energy_fj, to_fj(per_schedule * 2.0));
  EXPECT_EQ(e.insitu_bytes, 2 * org.row_bytes());
  EXPECT_EQ(e.offchip_bytes, 0u);
  EXPECT_EQ(e.wire_bytes, 0u);
}

TEST(EnergyModelTest, HostBulkFallbackPaysPinsAndCpu) {
  const dram::organization org = small_org();
  const energy_model model(org, false);

  runtime::bulk_bool_args args;
  args.op = dram::bulk_op::and_op;  // binary: two operands + result
  runtime::pim_task task;
  task.payload = args;
  runtime::task_report r;
  r.where = backend_kind::host;
  r.output_bytes = 4096;

  const bytes moved = 3 * r.output_bytes;
  const double words = static_cast<double>((r.output_bytes + 7) / 8);
  const double expect =
      streaming_pj(org, moved, ec::offchip_io_pj_per_bit) +
      words * (ec::cpu_alu_op_pj + ec::cpu_instruction_overhead_pj +
               ec::l1_access_pj);

  const task_energy e = model.charge(task, r);
  EXPECT_EQ(e.energy_fj, to_fj(expect));
  EXPECT_EQ(e.offchip_bytes, moved);
  EXPECT_EQ(e.insitu_bytes, 0u);
  EXPECT_EQ(e.wire_bytes, 0u);
}

TEST(EnergyModelTest, NdpBulkStaysInsideTheStack) {
  const dram::organization org = small_org();
  const energy_model model(org, false);

  runtime::bulk_bool_args args;
  args.op = dram::bulk_op::not_op;  // unary: one operand + result
  runtime::pim_task task;
  task.payload = args;
  runtime::task_report r;
  r.where = backend_kind::ndp_logic;
  r.output_bytes = 4096;

  const bytes moved = 2 * r.output_bytes;
  const double expect = streaming_pj(org, moved, ec::tsv_io_pj_per_bit) +
                        static_cast<double>(moved) * ec::pim_accel_byte_pj;

  const task_energy e = model.charge(task, r);
  EXPECT_EQ(e.energy_fj, to_fj(expect));
  EXPECT_EQ(e.insitu_bytes, moved);
  EXPECT_EQ(e.offchip_bytes, 0u);
}

TEST(EnergyModelTest, RowCloneFpmAndPsmLedgerDifferentInterfaces) {
  const dram::organization org = small_org();
  const energy_model model(org, false);
  const double act = act_pj(org);

  runtime::row_copy_args fpm;
  fpm.same_subarray = true;
  runtime::pim_task task;
  task.payload = fpm;
  runtime::task_report r;
  r.where = backend_kind::rowclone;

  const task_energy e_fpm = model.charge(task, r);
  EXPECT_EQ(e_fpm.energy_fj, to_fj(act + act + ec::dram_precharge_pj));
  EXPECT_EQ(e_fpm.insitu_bytes, org.row_bytes());
  EXPECT_EQ(e_fpm.wire_bytes, 0u);

  runtime::row_copy_args psm;
  psm.same_subarray = false;
  task.payload = psm;
  const task_energy e_psm = model.charge(task, r);
  const double psm_pj =
      2.0 * act + 2.0 * static_cast<double>(org.columns) * ec::dram_column_pj +
      2.0 * ec::dram_precharge_pj;
  EXPECT_EQ(e_psm.energy_fj, to_fj(psm_pj));
  EXPECT_EQ(e_psm.wire_bytes, org.row_bytes());
  EXPECT_EQ(e_psm.insitu_bytes, 0u);
  // PSM moves columns across the shared bus twice: strictly pricier
  // than FPM — the ratio the service's migration policy trades on.
  EXPECT_GT(e_psm.energy_fj, e_fpm.energy_fj);
}

TEST(EnergyModelTest, MemsetPricesLikeFpm) {
  const dram::organization org = small_org();
  const energy_model model(org, false);

  runtime::pim_task task;
  task.payload = runtime::row_memset_args{};
  runtime::task_report r;
  r.where = backend_kind::rowclone;
  const task_energy e = model.charge(task, r);
  EXPECT_EQ(e.energy_fj,
            to_fj(2.0 * act_pj(org) + ec::dram_precharge_pj));
  EXPECT_EQ(e.insitu_bytes, org.row_bytes());
}

TEST(EnergyModelTest, HostKernelChargesTheOffloadDecisionSide) {
  const dram::organization org = small_org();
  const energy_model model(org, false);

  runtime::pim_task task;
  task.payload = runtime::host_kernel_args{};
  runtime::task_report r;
  r.output_bytes = 512;
  r.decision.pim_energy = 123.0;
  r.decision.host_energy = 456.0;

  r.where = backend_kind::ndp_logic;
  const task_energy e_pim = model.charge(task, r);
  EXPECT_EQ(e_pim.energy_fj, to_fj(123.0));
  EXPECT_EQ(e_pim.insitu_bytes, 512u);

  r.where = backend_kind::host;
  const task_energy e_host = model.charge(task, r);
  EXPECT_EQ(e_host.energy_fj, to_fj(456.0));
  EXPECT_EQ(e_host.offchip_bytes, 512u);
}

// ---------------------------------------------------------------------------
// fold_samples: energy partitions exactly across every projection
// ---------------------------------------------------------------------------

sim_op_sample energy_sample(int group, int op, int backend, int bank,
                            std::uint64_t fj, bytes insitu, bytes offchip,
                            bytes wire) {
  sim_op_sample s;
  s.group = group;
  s.op = op;
  runtime::task_report& r = s.report;
  r.where = static_cast<backend_kind>(backend);
  r.bank = bank;
  r.admit_ps = 0;
  r.submit_ps = 0;
  r.release_ps = 0;
  r.start_ps = 0;
  r.complete_ps = 1250;
  r.energy_fj = fj;
  r.insitu_bytes = insitu;
  r.offchip_bytes = offchip;
  r.wire_bytes = wire;
  return s;
}

TEST(FoldSamplesEnergyTest, EveryProjectionSumsToTheMeterTotal) {
  // Awkward integers on purpose: doubles would tear these sums.
  std::vector<sim_op_sample> samples = {
      energy_sample(0, 0, 0, 0, 1000000000000000001ull, 7, 0, 0),
      energy_sample(0, 1, 1, 1, 3ull, 0, 11, 0),
      energy_sample(1, 0, 0, 2, 999999999999999999ull, 13, 0, 17),
      energy_sample(1, 2, 2, 0, 1ull, 1, 1, 1),
  };
  const tick_profile p = fold_samples(samples, 1250);

  std::uint64_t expect_fj = 0;
  bytes expect_insitu = 0, expect_offchip = 0, expect_wire = 0;
  for (const sim_op_sample& s : samples) {
    expect_fj += s.report.energy_fj;
    expect_insitu += s.report.insitu_bytes;
    expect_offchip += s.report.offchip_bytes;
    expect_wire += s.report.wire_bytes;
  }
  EXPECT_EQ(p.total_energy_fj, expect_fj);
  EXPECT_EQ(p.total_insitu_bytes, expect_insitu);
  EXPECT_EQ(p.total_offchip_bytes, expect_offchip);
  EXPECT_EQ(p.total_wire_bytes, expect_wire);

  const auto sum_proj = [&](const auto& m) {
    std::uint64_t fj = 0;
    for (const auto& [k, c] : m) fj += c.energy_fj;
    return fj;
  };
  EXPECT_EQ(sum_proj(p.by_op), expect_fj);
  EXPECT_EQ(sum_proj(p.by_backend), expect_fj);
  EXPECT_EQ(sum_proj(p.by_lane), expect_fj);
}

// ---------------------------------------------------------------------------
// Scheduler meter: totals are exactly the sum of the report charges
// ---------------------------------------------------------------------------

TEST(SchedulerMeterTest, TotalsEqualSumOfReportCharges) {
  core::pim_system sys(small_config());
  const bits size = 4'000;
  auto v = sys.allocate(size, 5);
  rng gen(7);
  sys.write(v[0], bitvector::random(size, gen));
  sys.write(v[1], bitvector::random(size, gen));

  std::vector<runtime::task_future> futures;
  futures.push_back(sys.submit_bulk(dram::bulk_op::and_op, v[0], &v[1], v[2]));
  futures.push_back(sys.submit_bulk(dram::bulk_op::not_op, v[2], nullptr,
                                    v[3]));
  futures.push_back(sys.submit_bulk(dram::bulk_op::xor_op, v[3], &v[0], v[4]));
  sys.wait_all();

  std::uint64_t fj = 0, insitu = 0, offchip = 0, wire = 0;
  for (const runtime::task_future& f : futures) {
    const runtime::task_report& r = f.report();
    EXPECT_GT(r.energy_fj, 0u);
    fj += r.energy_fj;
    insitu += r.insitu_bytes;
    offchip += r.offchip_bytes;
    wire += r.wire_bytes;
  }
  const runtime::scheduler_stats s = sys.runtime().stats().sched;
  EXPECT_EQ(s.energy_fj, fj);
  EXPECT_EQ(s.insitu_bytes, insitu);
  EXPECT_EQ(s.offchip_bytes, offchip);
  EXPECT_EQ(s.wire_bytes, wire);
}

TEST(SchedulerMeterTest, MeteringOffIsFreeAndTransparent) {
  const bits size = 4'000;
  rng gen(11);
  const bitvector a = bitvector::random(size, gen);
  const bitvector b = bitvector::random(size, gen);

  const auto run = [&](bool metered) {
    set_metering(metered);
    core::pim_system sys(small_config());
    auto v = sys.allocate(size, 3);
    sys.write(v[0], a);
    sys.write(v[1], b);
    runtime::task_future f =
        sys.submit_bulk(dram::bulk_op::xnor_op, v[0], &v[1], v[2]);
    sys.wait_all();
    const runtime::scheduler_stats s = sys.runtime().stats().sched;
    return std::make_tuple(sys.read(v[2]), f.report().energy_fj, s.energy_fj,
                           s.insitu_bytes + s.offchip_bytes + s.wire_bytes);
  };

  const auto metered = run(true);
  const auto unmetered = run(false);
  set_metering(true);  // restore for other tests in this binary

  // Metering only writes counters: results bit-identical either way.
  EXPECT_EQ(std::get<0>(metered), std::get<0>(unmetered));
  EXPECT_GT(std::get<1>(metered), 0u);
  EXPECT_GT(std::get<2>(metered), 0u);
  EXPECT_EQ(std::get<1>(unmetered), 0u);
  EXPECT_EQ(std::get<2>(unmetered), 0u);
  EXPECT_EQ(std::get<3>(unmetered), 0u);
}

// ---------------------------------------------------------------------------
// Wire: the done frame carries the charge
// ---------------------------------------------------------------------------

net::net_frame wire_roundtrip(const net::net_message& msg) {
  const std::vector<std::uint8_t> bytes = net::encode_frame(99, msg);
  net::frame_splitter splitter(net::wire_side::client);
  splitter.feed(bytes.data(), bytes.size());
  auto frame = splitter.next();
  EXPECT_TRUE(frame.has_value());
  EXPECT_EQ(splitter.buffered(), 0u);
  return *frame;
}

TEST(WireEnergyTest, V3RoundTripsTheChargeAndLedger) {
  net::done_resp resp;
  resp.report.id = 4;
  resp.report.energy_fj = 123456789ull;
  resp.report.insitu_bytes = 1111;
  resp.report.offchip_bytes = 2222;
  resp.report.wire_bytes = 3333;

  const auto f = wire_roundtrip(resp);
  const auto& m = std::get<net::done_resp>(f.msg);
  EXPECT_EQ(m.report.energy_fj, 123456789ull);
  EXPECT_EQ(m.report.insitu_bytes, 1111u);
  EXPECT_EQ(m.report.offchip_bytes, 2222u);
  EXPECT_EQ(m.report.wire_bytes, 3333u);
}

// ---------------------------------------------------------------------------
// Per-shard gauges: published atomically with the scheduler snapshot
// ---------------------------------------------------------------------------

TEST(ShardGaugeTest, EnergyGaugesCoherentWithServiceStats) {
  metrics_registry::instance().reset();
  service::service_config cfg;
  cfg.shards = 2;
  cfg.system = small_config();
  cfg.routing = service::shard_routing::range;
  cfg.sessions_per_shard = 1;
  service::pim_service svc(cfg);
  svc.start();
  {
    // One client per shard, a short chain each, fully drained before
    // the snapshot — so the gauge/struct comparison below is over a
    // quiesced meter and must match bit for bit.
    std::vector<std::unique_ptr<service::service_client>> clients;
    for (int i = 0; i < 2; ++i) {
      clients.push_back(std::make_unique<service::service_client>(svc));
      auto v = clients.back()->allocate(4'000, 3);
      rng gen(static_cast<std::uint64_t>(13 + i));
      clients.back()->write(v[0], bitvector::random(4'000, gen));
      clients.back()->write(v[1], bitvector::random(4'000, gen));
      clients.back()->submit_bulk(dram::bulk_op::or_op, v[0], &v[1], v[2]);
      clients.back()->submit_bulk(dram::bulk_op::nand_op, v[2], &v[0], v[1]);
      clients.back()->digest();  // synchronizes the session
    }

    // stats() runs the publish-on-demand handshake: every gauge below
    // is published from the same locked runtime snapshot the returned
    // struct is built from.
    const service::service_stats stats = svc.stats();
    const metrics_snapshot snap = metrics_registry::instance().snapshot();
    ASSERT_EQ(stats.shards.size(), 2u);
    std::uint64_t total_fj = 0;
    for (int s = 0; s < 2; ++s) {
      const std::string prefix = "service.shard." + std::to_string(s) + ".";
      const runtime::scheduler_stats& sched =
          stats.shards[static_cast<std::size_t>(s)].runtime.sched;
      total_fj += sched.energy_fj;
      EXPECT_GT(sched.energy_fj, 0u);
      EXPECT_EQ(snap.gauges.at(prefix + "total_ticks"),
                static_cast<std::int64_t>(sched.ticks));
      EXPECT_EQ(snap.gauges.at(prefix + "energy_pj"),
                static_cast<std::int64_t>(sched.energy_fj / 1000));
      EXPECT_EQ(snap.gauges.at(prefix + "moved_bytes_insitu"),
                static_cast<std::int64_t>(sched.insitu_bytes));
      EXPECT_EQ(snap.gauges.at(prefix + "moved_bytes_offchip"),
                static_cast<std::int64_t>(sched.offchip_bytes));
      EXPECT_EQ(snap.gauges.at(prefix + "moved_bytes_wire"),
                static_cast<std::int64_t>(sched.wire_bytes));
    }
    // And the aggregate equals the per-shard sum — the conservation
    // law bench_service gates at every shard count.
    EXPECT_EQ(stats.energy_fj, total_fj);
  }
  svc.stop();
}

}  // namespace
}  // namespace pim::obs
