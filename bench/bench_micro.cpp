// Micro-benchmarks of pimlib's own primitives (google-benchmark):
// bitvector algebra, cache simulation, DRAM controller throughput,
// Ambit command compilation, and graph generation. These guard the
// simulator's performance, not the paper's results.
#include <benchmark/benchmark.h>

#include "common/bitvector.h"
#include "cpu/cache.h"
#include "dram/ambit.h"
#include "dram/memory_system.h"
#include "graph/graph.h"

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

}  // namespace

BENCHMARK_MAIN();
