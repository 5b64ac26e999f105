// E4: database query latency, CPU scan vs. Ambit-accelerated scan over
// BitWeaving-V storage (paper: 2x-12x, growing with data-set size).
// Results are also written to BENCH_bitweaving.json. Every leaf is an
// analytic latency or an op or match count of a seeded column, so the
// file repeats exactly and CI checks it against bench/baseline/; the
// match counts tie it to the bit-sliced layout itself.
#include <iostream>

#include "common/json_writer.h"
#include "common/table.h"
#include "db/bitmap_index.h"
#include "db/query.h"

int main() {
  using namespace pim;
  using namespace pim::db;

  json_writer json;
  json.begin_object();
  json.key("bench").value("bitweaving");

  std::cout << "=== E4: 'SELECT COUNT(*) WHERE v < c' on a 12-bit column "
               "(BitWeaving-V) ===\n\n";
  rng gen(2026);
  table t({"rows", "ops", "CPU (us)", "Ambit (us)", "speedup"});
  json.key("scaling").begin_array();
  for (int shift = 20; shift <= 25; ++shift) {
    const std::size_t rows = std::size_t{1} << shift;
    const column col = random_column(rows, 12, gen);
    const bitslice_storage storage(col);
    const auto cmp = compare_scan(storage, predicate{cmp_op::lt, 1800, 0});
    t.row()
        .cell(std::uint64_t{rows})
        .cell(std::uint64_t{cmp.op_count})
        .cell(static_cast<double>(cmp.cpu_ps) / 1e6)
        .cell(static_cast<double>(cmp.ambit_ps) / 1e6)
        .cell(cmp.speedup(), 1);
    json.begin_object();
    json.key("rows").value(std::uint64_t{rows});
    json.key("ops").value(std::uint64_t{cmp.op_count});
    json.key("matches").value(std::uint64_t{cmp.matches});
    json.key("cpu_us").value(static_cast<double>(cmp.cpu_ps) / 1e6);
    json.key("ambit_us").value(static_cast<double>(cmp.ambit_ps) / 1e6);
    json.key("speedup").value(cmp.speedup());
    json.end_object();
  }
  json.end_array();
  t.print(std::cout);
  std::cout << "(paper: 2x at small sizes growing to ~12x at large "
               "sizes)\n\n";

  std::cout << "=== Predicate mix at 16M rows ===\n\n";
  const std::size_t rows = std::size_t{1} << 24;
  const column col = random_column(rows, 12, gen);
  const bitslice_storage storage(col);
  table t2({"predicate", "ops", "CPU (us)", "Ambit (us)", "speedup"});
  const std::vector<std::pair<std::string, predicate>> predicates = {
      {"v = c", {cmp_op::eq, 1800, 0}},
      {"v < c", {cmp_op::lt, 1800, 0}},
      {"v >= c", {cmp_op::ge, 1800, 0}},
      {"c1 <= v <= c2", {cmp_op::between, 1000, 2800}},
  };
  json.key("predicates").begin_array();
  for (const auto& [name, pred] : predicates) {
    const auto cmp = compare_scan(storage, pred);
    t2.row()
        .cell(name)
        .cell(std::uint64_t{cmp.op_count})
        .cell(static_cast<double>(cmp.cpu_ps) / 1e6)
        .cell(static_cast<double>(cmp.ambit_ps) / 1e6)
        .cell(cmp.speedup(), 1);
    json.begin_object();
    json.key("predicate").value(name);
    json.key("ops").value(std::uint64_t{cmp.op_count});
    json.key("matches").value(std::uint64_t{cmp.matches});
    json.key("cpu_us").value(static_cast<double>(cmp.cpu_ps) / 1e6);
    json.key("ambit_us").value(static_cast<double>(cmp.ambit_ps) / 1e6);
    json.key("speedup").value(cmp.speedup());
    json.end_object();
  }
  json.end_array();
  t2.print(std::cout);

  std::cout << "=== Bitmap-index query: COUNT WHERE v IN {3 of 16} at 16M "
               "rows ===\n\n";
  const column low_card = random_column(rows, 4, gen);
  const bitmap_index index(low_card, 16);
  const auto q = index.query_in({2, 7, 11});
  const auto cpu_ps = cpu_scan_latency(rows, 16, q.ops);
  const auto ambit_ps = ambit_scan_latency(rows, q.ops);
  table t3({"backend", "latency (us)", "matches"});
  t3.row().cell("CPU").cell(static_cast<double>(cpu_ps) / 1e6).cell(
      std::uint64_t{q.selection.popcount()});
  t3.row().cell("Ambit").cell(static_cast<double>(ambit_ps) / 1e6).cell(
      std::uint64_t{q.selection.popcount()});
  t3.print(std::cout);
  json.key("bitmap_index").begin_object();
  json.key("cpu_us").value(static_cast<double>(cpu_ps) / 1e6);
  json.key("ambit_us").value(static_cast<double>(ambit_ps) / 1e6);
  json.key("matches").value(std::uint64_t{q.selection.popcount()});
  json.end_object();

  json.end_object();
  json.write_file("BENCH_bitweaving.json");
  std::cout << "\nwrote BENCH_bitweaving.json\n";
  return 0;
}
