#include "core/pim_system.h"

#include "common/digest.h"
#include "common/energy_constants.h"

namespace pim::core {

pim_system::pim_system(pim_system_config config)
    : config_(config),
      mem_(config.org, config.timing),
      allocator_(config.org),
      ambit_(mem_),
      rowclone_(mem_),
      runtime_(mem_, ambit_, rowclone_, config.runtime) {}

op_report op_report::make(picoseconds latency, picojoules energy,
                          bytes output_bytes) {
  op_report report;
  report.latency = latency;
  report.energy = energy;
  // gigabytes_per_second guards elapsed <= 0 internally.
  report.throughput_gbps = gigabytes_per_second(output_bytes, latency);
  return report;
}

std::vector<dram::bulk_vector> pim_system::allocate(bits size, int count) {
  return allocator_.allocate_group(size, count);
}

void pim_system::free_group(const std::vector<dram::bulk_vector>& group) {
  allocator_.free_group(group);
}

void pim_system::free_rows(const std::vector<dram::address>& rows) {
  allocator_.free_rows(rows);
}

std::size_t pim_system::free_slots() const { return allocator_.free_slots(); }

void pim_system::write(const dram::bulk_vector& v, const bitvector& data) {
  ambit_.write_vector(v, data);
}

bitvector pim_system::read(const dram::bulk_vector& v) const {
  return ambit_.read_vector(v);
}

std::uint64_t pim_system::digest(std::uint64_t seed,
                                 const dram::bulk_vector& v) const {
  return fnv1a(seed, read(v));
}

op_report pim_system::execute(dram::bulk_op op, const dram::bulk_vector& a,
                              const dram::bulk_vector* b,
                              dram::bulk_vector& d) {
  const auto energy_now = [this] {
    return compute_dram_energy(mem_.counters(), config_.org, 0,
                               energy::offchip_io_pj_per_bit)
        .total();
  };
  const picojoules energy_before = energy_now();
  const picoseconds start = mem_.now_ps();
  runtime::pim_task task = runtime::make_bulk_task(op, a, b, d);
  // The synchronous API always uses the in-DRAM engine; offload
  // routing is the async path's job.
  task.forced_backend = runtime::backend_kind::ambit;
  runtime_.wait(runtime_.submit(std::move(task)));
  return op_report::make(mem_.now_ps() - start, energy_now() - energy_before,
                         d.size / 8);
}

runtime::task_future pim_system::submit(runtime::pim_task task) {
  return runtime_.submit(std::move(task));
}

runtime::task_future pim_system::submit_bulk(dram::bulk_op op,
                                             const dram::bulk_vector& a,
                                             const dram::bulk_vector* b,
                                             const dram::bulk_vector& d,
                                             int stream) {
  return runtime_.submit_bulk(op, a, b, d, stream);
}

void pim_system::wait(const runtime::task_future& future) {
  runtime_.wait(future);
}

void pim_system::wait_all() { runtime_.wait_all(); }

dram::dram_energy pim_system::energy() const {
  return compute_dram_energy(mem_.counters(), config_.org, mem_.now_ps(),
                             energy::offchip_io_pj_per_bit);
}

}  // namespace pim::core
