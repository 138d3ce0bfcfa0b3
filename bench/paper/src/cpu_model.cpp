#include "tytra/sim/cpu_model.hpp"

#include <algorithm>

namespace tytra::sim {

double cpu_kernel_seconds(std::uint64_t items, const CpuKernelCost& cost,
                          const CpuParams& params) {
  const double n = static_cast<double>(items);
  const double compute = n * cost.ops_per_item / (params.ipc * params.freq_hz);
  const double working_set = n * cost.bytes_per_item;
  const double bw =
      working_set <= params.cache_bytes ? params.cache_bw : params.mem_bw;
  const double memory = working_set / bw;
  return std::max(compute, memory) + params.call_overhead_seconds;
}

double cpu_total_seconds(std::uint64_t items, std::uint32_t nki,
                         const CpuKernelCost& cost, const CpuParams& params) {
  return static_cast<double>(nki) * cpu_kernel_seconds(items, cost, params);
}

}  // namespace tytra::sim

namespace tytra::kernels {

sim::CpuKernelCost sor_cpu_cost() {
  // 7 multiplies, 8 adds/subs per point; ~10 words touched.
  return {17.0, 10.0 * 4.0};
}

sim::CpuKernelCost hotspot_cpu_cost() { return {14.0, 6.0 * 4.0}; }

sim::CpuKernelCost lavamd_cpu_cost() { return {16.0, 8.0 * 4.0}; }

sim::CpuParams case_study_cpu() {
  sim::CpuParams p;
  p.freq_hz = 1.6e9;
  p.ipc = 0.29;  // measured sustained rate of the Fortran SOR loop nest
  return p;
}

}  // namespace tytra::kernels
