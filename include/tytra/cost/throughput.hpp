#pragma once

// The EKIT (Effective Kernel-Instance Throughput) cost model of paper
// §V-B: Equations 1-3 for the three memory-execution forms, over the
// Table-I parameter set. Besides the throughput itself the model exposes
// the performance-limiting parameter (the "wall"), enabling targeted
// optimization and the feedback path of the compiler flow.

#include <cstdint>
#include <string_view>

#include "tytra/cost/calibration.hpp"
#include "tytra/ir/analysis.hpp"
#include "tytra/ir/module.hpp"

namespace tytra::cost {

/// The performance-limiting parameter of a design variant.
enum class Wall : std::uint8_t {
  HostBandwidth,   ///< host<->device transfers dominate (communication wall)
  DramBandwidth,   ///< device-DRAM streaming dominates (communication wall)
  Compute,         ///< datapath issue rate dominates (compute wall)
  PipelineFill,    ///< KPD/FD dominates (tiny NDRanges)
  OffsetFill,      ///< offset-buffer priming dominates
};

std::string_view wall_name(Wall wall);

/// The fully-resolved Table-I parameter set for one design variant.
struct EkitInputs {
  ir::DesignParams design;  ///< from IR analysis
  double hpb{0};            ///< HPB: host peak bandwidth, bytes/s
  double rho_h{1};          ///< empirical host scaling factor
  double gpb{0};            ///< GPB: device DRAM peak bandwidth, bytes/s
  double rho_g{1};          ///< empirical DRAM scaling factor
  double word_bytes{4};
};

/// Throughput estimate with its decomposition.
struct ThroughputEstimate {
  double ekit{0};               ///< kernel-instance executions per second
  double seconds_per_instance{0};
  // Decomposition of the per-instance time (Eq. 1-3 terms):
  double t_host{0};         ///< host<->device transfer share
  double t_offset_fill{0};  ///< offset-buffer priming
  double t_pipe_fill{0};    ///< pipeline fill (KPD/FD)
  double t_mem_stream{0};   ///< DRAM streaming term (inside max)
  double t_compute{0};      ///< compute term (inside max)
  Wall limiting{Wall::Compute};
  double cycles_per_instance{0};  ///< CPKI: device cycles, host time excluded
};

/// Evaluates the EKIT expression for the form selected in
/// `in.design.form`. `in.design.fd` must be resolved (>0).
ThroughputEstimate ekit(const EkitInputs& in);

/// Resolves the Table-I inputs for `module` against a calibrated device
/// database (peak bandwidths from the architecture description, rho_H and
/// rho_G from the empirical tables, FD defaulted from the device), then
/// evaluates EKIT. The summary overloads reuse a one-traversal
/// `ir::AnalysisSummary` (parameters and per-port stride resolutions)
/// instead of re-walking the module; results are bit-identical.
/// Preconditions: module verifies; module.meta.global_size > 0.
ThroughputEstimate estimate_throughput(const ir::Module& module,
                                       const DeviceCostDb& db);
ThroughputEstimate estimate_throughput(const ir::Module& module,
                                       const DeviceCostDb& db,
                                       const ir::AnalysisSummary& summary);

/// The resolved inputs themselves (for reports and tests).
EkitInputs resolve_inputs(const ir::Module& module, const DeviceCostDb& db);
EkitInputs resolve_inputs(const ir::Module& module, const DeviceCostDb& db,
                          const ir::AnalysisSummary& summary);

}  // namespace tytra::cost
