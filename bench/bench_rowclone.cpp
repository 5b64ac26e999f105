// E9: RowClone bulk copy/initialization vs. CPU memcpy/memset — the
// substrate result Ambit builds on (RowClone paper: ~11.6x latency and
// ~74x DRAM energy reduction for same-subarray copies). Every number
// is simulated or analytic; they are also written to BENCH_rowclone.json.
#include <iostream>

#include "common/energy_constants.h"
#include "common/json_writer.h"
#include "common/table.h"
#include "cpu/kernels.h"
#include "cpu/system.h"
#include "dram/rowclone.h"

int main() {
  using namespace pim;

  dram::organization org;
  org.channels = 1;
  org.ranks = 1;
  org.banks = 8;
  org.subarrays = 32;
  org.rows = 4096;
  org.columns = 128;  // 8 KiB rows

  std::cout << "=== E9: one-row (8 KiB) copy latency and DRAM energy ===\n\n";

  auto run_copy = [&](bool fpm) {
    dram::memory_system mem(org, dram::ddr3_1600());
    dram::rowclone_engine rc(mem);
    dram::address src;
    src.row = 1;
    dram::address dst = src;
    picoseconds done = 0;
    if (fpm) {
      dst.row = 5;  // same subarray
      rc.copy_fpm(src, dst, [&](picoseconds t) { done = t; });
    } else {
      dst.bank = 3;
      rc.copy_psm(src, dst, [&](picoseconds t) { done = t; });
    }
    mem.drain();
    const dram::dram_energy e = compute_dram_energy(
        mem.counters(), org, 0, energy::offchip_io_pj_per_bit);
    return std::pair<picoseconds, double>(done, e.total());
  };

  // CPU baseline: memcpy of 8 KiB through the channel.
  cpu::system_config host = cpu::desktop_system();
  cpu::system_model model(host);
  cpu::stream_copy_kernel copy(8 * kib, 0, 1ull * gib);
  const cpu::run_result host_copy = model.run(copy);
  const double host_energy =
      host_copy.energy.dram_core + host_copy.energy.dram_io;

  const auto [fpm_ps, fpm_pj] = run_copy(true);
  const auto [psm_ps, psm_pj] = run_copy(false);

  table t({"mechanism", "latency (ns)", "DRAM energy (nJ)", "latency vs CPU",
           "energy vs CPU"});
  t.row()
      .cell("CPU memcpy (DDR3 channel)")
      .cell(ps_to_ns(host_copy.time))
      .cell(host_energy / 1000.0)
      .cell(1.0, 1)
      .cell(1.0, 1);
  t.row()
      .cell("RowClone-PSM (inter-bank)")
      .cell(ps_to_ns(psm_ps))
      .cell(psm_pj / 1000.0)
      .cell(static_cast<double>(host_copy.time) / static_cast<double>(psm_ps),
            1)
      .cell(host_energy / psm_pj, 1);
  t.row()
      .cell("RowClone-FPM (intra-subarray)")
      .cell(ps_to_ns(fpm_ps))
      .cell(fpm_pj / 1000.0)
      .cell(static_cast<double>(host_copy.time) / static_cast<double>(fpm_ps),
            1)
      .cell(host_energy / fpm_pj, 1);
  t.print(std::cout);
  std::cout << "(RowClone paper: FPM ~11.6x latency, ~74x energy vs the "
               "channel path)\n\n";

  std::cout << "=== Bulk initialization: 1 MiB zeroing ===\n\n";
  const int rows_needed = static_cast<int>(1 * mib / org.row_bytes());
  dram::memory_system mem(org, dram::ddr3_1600());
  dram::rowclone_engine rc(mem);
  for (int r = 0; r < rows_needed; ++r) {
    dram::address dst;
    dst.bank = r % org.banks;
    dst.row = 8 + r / org.banks;
    rc.memset_row(dst, false);
  }
  const picoseconds start = mem.now_ps();
  mem.drain();
  const picoseconds rc_time = mem.now_ps() - start;

  cpu::system_model model2(cpu::desktop_system());
  cpu::stream_set_kernel set(1 * mib, 0, true);
  const cpu::run_result host_set = model2.run(set);

  table t2({"mechanism", "latency (us)", "GB/s"});
  t2.row()
      .cell("CPU memset (streaming stores)")
      .cell(static_cast<double>(host_set.time) / 1e6)
      .cell(gigabytes_per_second(1 * mib, host_set.time));
  t2.row()
      .cell("RowClone memset (FPM from C0)")
      .cell(static_cast<double>(rc_time) / 1e6)
      .cell(gigabytes_per_second(1 * mib, rc_time));
  t2.print(std::cout);

  json_writer json;
  json.begin_object();
  json.key("bench").value("rowclone");
  json.key("copy").begin_object();
  auto copy_entry = [&json](const char* name, picoseconds ps, double pj) {
    json.key(name).begin_object();
    json.key("latency_ns").value(ps_to_ns(ps));
    json.key("energy_pj").value(pj);
    json.end_object();
  };
  copy_entry("cpu", host_copy.time, host_energy);
  copy_entry("psm", psm_ps, psm_pj);
  copy_entry("fpm", fpm_ps, fpm_pj);
  json.end_object();
  json.key("memset_1mib").begin_object();
  json.key("cpu_us").value(static_cast<double>(host_set.time) / 1e6);
  json.key("rowclone_us").value(static_cast<double>(rc_time) / 1e6);
  json.end_object();
  json.end_object();
  json.write_file("BENCH_rowclone.json");
  std::cout << "\nwrote BENCH_rowclone.json\n";
  return 0;
}
