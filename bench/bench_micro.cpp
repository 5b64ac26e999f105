// Micro-benchmarks of pimlib's own primitives (google-benchmark):
// bitvector algebra, cache simulation, DRAM controller throughput,
// Ambit command compilation, the runtime's tick loop under Ambit and
// PSM work, and graph generation. These guard the simulator's
// performance, not the paper's results.
#include <benchmark/benchmark.h>

#include "common/bitvector.h"
#include "core/pim_system.h"
#include "cpu/cache.h"
#include "dram/ambit.h"
#include "dram/memory_system.h"
#include "graph/graph.h"
#include "query/plan.h"
#include "query/table.h"

namespace {

using namespace pim;

void bm_bitvector_and(benchmark::State& state) {
  rng gen(1);
  const auto bits = static_cast<std::size_t>(state.range(0));
  bitvector a = bitvector::random(bits, gen);
  const bitvector b = bitvector::random(bits, gen);
  for (auto _ : state) {
    a &= b;
    benchmark::DoNotOptimize(a);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bits / 8));
}
BENCHMARK(bm_bitvector_and)->Range(1 << 12, 1 << 22);

void bm_bitvector_majority(benchmark::State& state) {
  rng gen(2);
  const auto bits = static_cast<std::size_t>(state.range(0));
  const bitvector a = bitvector::random(bits, gen);
  const bitvector b = bitvector::random(bits, gen);
  const bitvector c = bitvector::random(bits, gen);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bitvector::majority(a, b, c));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bits / 8));
}
BENCHMARK(bm_bitvector_majority)->Range(1 << 12, 1 << 20);

void bm_bitvector_popcount(benchmark::State& state) {
  rng gen(3);
  const bitvector a = bitvector::random(1 << 20, gen);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.popcount());
  }
}
BENCHMARK(bm_bitvector_popcount);

void bm_cache_stream(benchmark::State& state) {
  cpu::cache c(cpu::cache_config{"L2", 1 * mib, 16, 64});
  std::uint64_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.access(addr, false));
    addr += 64;
  }
}
BENCHMARK(bm_cache_stream);

void bm_cache_random(benchmark::State& state) {
  cpu::cache c(cpu::cache_config{"L2", 1 * mib, 16, 64});
  rng gen(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.access(gen.next_below(1 << 28) * 64, false));
  }
}
BENCHMARK(bm_cache_random);

void bm_controller_random_reads(benchmark::State& state) {
  dram::organization org = dram::ddr3_dimm(1);
  dram::memory_system mem(org, dram::ddr3_1600());
  rng gen(5);
  std::uint64_t served = 0;
  for (auto _ : state) {
    dram::request req;
    req.kind = dram::request_kind::read;
    req.addr = gen.next_below(org.total_bytes() / 64) * 64;
    req.on_complete = [&served](picoseconds) { ++served; };
    while (!mem.enqueue(req)) mem.tick();
    mem.tick();
  }
  mem.drain();
  benchmark::DoNotOptimize(served);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_controller_random_reads);

void bm_ambit_compile(benchmark::State& state) {
  dram::organization org;
  const dram::ambit_compiler compiler(org, true);
  const dram::subarray_layout layout(org);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiler.compile(
        dram::bulk_op::xor_op, 0, layout.data_row(0, 0),
        layout.data_row(0, 1), layout.data_row(0, 2)));
  }
}
BENCHMARK(bm_ambit_compile);

void bm_rmat_generation(benchmark::State& state) {
  for (auto _ : state) {
    rng gen(6);
    benchmark::DoNotOptimize(graph::rmat(12, 8, gen));
  }
}
BENCHMARK(bm_rmat_generation);

// Streaming reads through the open-row FR-FCFS path: 512 consecutive
// lines, row hits after each row's first activation.
void bm_controller_sequential_reads(benchmark::State& state) {
  for (auto _ : state) {
    dram::organization org = dram::ddr3_dimm(1);
    dram::memory_system mem(org, dram::ddr3_1600());
    for (std::uint64_t i = 0; i < 512; ++i) {
      dram::request req;
      req.kind = dram::request_kind::read;
      req.addr = i * 64;
      while (!mem.enqueue(req)) mem.tick();
    }
    mem.drain();
    benchmark::DoNotOptimize(mem.now_cycles());
  }
}
BENCHMARK(bm_controller_sequential_reads);

// One service shard's pim_system (perfbench's shard_config): one
// channel, one rank, eight banks, 8 KiB rows.
core::pim_system_config shard_system() {
  core::pim_system_config cfg;
  cfg.org.channels = 1;
  cfg.org.ranks = 1;
  cfg.org.banks = 8;
  cfg.org.subarrays = 8;
  cfg.org.rows = 1024;
  cfg.org.columns = 128;
  return cfg;
}

std::uint64_t dram_commands(const counter_set& counters) {
  std::uint64_t n = 0;
  for (const auto& [name, count] : counters.all()) {
    if (name.starts_with("dram.")) n += count;
  }
  return n;
}

// Host time per DRAM command: commands per second, inverted (printed
// in ns).
benchmark::Counter time_per_command(std::uint64_t commands) {
  return benchmark::Counter(
      static_cast<double>(commands),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

// perfbench scan_query's five plans over the two 2^18-row partitions
// one shard holds, each plan submitted on both and waited like one
// query, on a single thread: the shard's tick loop without the
// threaded service around it.
void bm_ambit_plan_replay(benchmark::State& state) {
  core::pim_system sys(shard_system());
  const query::table_schema schema{{{"x", 12}, {"y", 8}}};
  constexpr bits kRows = bits{1} << 18;
  constexpr int kSlices = 12 + 8;
  constexpr int kScratch = 24;
  rng gen(7);
  std::vector<std::vector<dram::bulk_vector>> parts;
  for (int p = 0; p < 2; ++p) {
    parts.push_back(sys.allocate(kRows, kSlices + kScratch));
    for (int s = 0; s < kSlices; ++s) {
      sys.write(parts.back()[static_cast<std::size_t>(s)],
                bitvector::random(kRows, gen));
    }
  }
  using query::predicate_node;
  auto leaf = [](const char* col, db::cmp_op op, std::uint32_t v,
                 std::uint32_t v2 = 0) {
    return predicate_node::leaf(col, {op, v, v2});
  };
  std::vector<query::query_spec> specs(5);
  specs[0].where = leaf("x", db::cmp_op::lt, 1500);
  specs[1].where = predicate_node::land(leaf("x", db::cmp_op::lt, 3000),
                                        leaf("y", db::cmp_op::ge, 100));
  specs[2].where = predicate_node::lor(
      leaf("x", db::cmp_op::gt, 3500),
      predicate_node::lnot(leaf("y", db::cmp_op::eq, 77)));
  specs[3] = {predicate_node::land(leaf("x", db::cmp_op::ge, 1000),
                                  leaf("y", db::cmp_op::le, 200)),
              query::agg_kind::sum, "y"};
  specs[4].where = leaf("x", db::cmp_op::between, 700, 2900);
  std::vector<query::query_plan> plans;
  for (const query::query_spec& spec : specs) {
    plans.push_back(query::plan_query(schema, spec));
  }

  const std::uint64_t before = dram_commands(sys.memory().counters());
  for (auto _ : state) {
    for (const query::query_plan& plan : plans) {
      for (const auto& group : parts) {
        // Inputs are the column slices, x's 12 then y's 8; the rest
        // are scratch vectors after them.
        auto reg = [&](int r) -> const dram::bulk_vector& {
          if (r < plan.input_count()) {
            const query::slice_ref& in =
                plan.inputs[static_cast<std::size_t>(r)];
            return group[static_cast<std::size_t>(in.column * 12 + in.bit)];
          }
          return group[static_cast<std::size_t>(kSlices + r -
                                                plan.input_count())];
        };
        for (const query::plan_step& st : plan.steps) {
          sys.submit_bulk(st.op, reg(st.a), st.b < 0 ? nullptr : &reg(st.b),
                          reg(st.d));
        }
      }
      sys.wait_all();
    }
    benchmark::DoNotOptimize(sys.memory().now_cycles());
  }
  state.counters["time_per_command"] =
      time_per_command(dram_commands(sys.memory().counters()) - before);
}
BENCHMARK(bm_ambit_plan_replay)->Unit(benchmark::kMillisecond);

// RowClone-PSM copies on the same shard-sized system: sixteen rows,
// each copied into a row of the next bank, then waited.
void bm_psm_row_copies(benchmark::State& state) {
  core::pim_system sys(shard_system());
  const auto group = sys.allocate(16 * sys.org().row_bits(), 2);
  const std::vector<dram::address>& src = group[0].rows;
  const std::vector<dram::address>& dst = group[1].rows;
  const std::uint64_t before = dram_commands(sys.memory().counters());
  for (auto _ : state) {
    for (std::size_t i = 0; i < src.size(); ++i) {
      runtime::pim_task task;
      task.payload =
          runtime::row_copy_args{src[i], dst[(i + 1) % dst.size()], false};
      task.forced_backend = runtime::backend_kind::rowclone;
      sys.submit(std::move(task));
    }
    sys.wait_all();
    benchmark::DoNotOptimize(sys.memory().now_cycles());
  }
  state.counters["time_per_command"] =
      time_per_command(dram_commands(sys.memory().counters()) - before);
}
BENCHMARK(bm_psm_row_copies)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
