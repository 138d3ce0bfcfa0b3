#pragma once

// CPU baseline timing model: the single-threaded Fortran/gcc -O2 reference
// of the paper's case study (§VII), running on the Maxeler desktop host
// (intel-i7 at 1.6 GHz). A simple roofline: per-item compute cost vs
// memory traffic against a cache-aware bandwidth.

#include <cstdint>

namespace tytra::sim {

struct CpuParams {
  double freq_hz{1.6e9};
  double ipc{2.2};                 ///< sustained scalar ops/cycle, -O2
  double cache_bytes{8.0 * 1024 * 1024};
  double cache_bw{25.0e9};         ///< bytes/s when resident in LLC
  double mem_bw{10.0e9};           ///< bytes/s from DRAM (single thread)
  double call_overhead_seconds{0.5e-6};
};

struct CpuKernelCost {
  double ops_per_item{0};    ///< arithmetic operations per work-item
  double bytes_per_item{0};  ///< memory traffic per work-item
};

/// Seconds for one kernel sweep over `items` work-items.
double cpu_kernel_seconds(std::uint64_t items, const CpuKernelCost& cost,
                          const CpuParams& params = {});

/// Seconds for `nki` repeated sweeps (the SOR iteration loop); the working
/// set determines whether iterations re-stream from DRAM or hit cache.
double cpu_total_seconds(std::uint64_t items, std::uint32_t nki,
                         const CpuKernelCost& cost, const CpuParams& params = {});

}  // namespace tytra::sim

namespace tytra::kernels {

/// Per-item CPU cost of each evaluation kernel (for the baseline model).
sim::CpuKernelCost sor_cpu_cost();
sim::CpuKernelCost hotspot_cpu_cost();
sim::CpuKernelCost lavamd_cpu_cost();

/// CPU parameters of the case-study host (paper §VII: intel-i7 quad at
/// 1.6 GHz, single-threaded Fortran, gcc -O2). The sustained IPC is the
/// empirically calibrated value for the LES SOR loop nest (strided
/// k-plane accesses keep it well below the core's peak issue rate).
sim::CpuParams case_study_cpu();

}  // namespace tytra::kernels
