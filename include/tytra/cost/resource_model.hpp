#pragma once

// The resource-utilization cost model (paper §V-A): accumulates the cost
// of individual IR instructions (through the calibrated laws) and the
// structural information implied in the type of each IR function —
// offset buffers, delay-balancing registers, stream control, sequencers.
//
// This path never consults the fabric synthesizer; it only evaluates
// fitted curves, which is what makes it fast.

#include "tytra/cost/calibration.hpp"
#include "tytra/ir/analysis.hpp"
#include "tytra/ir/module.hpp"
#include "tytra/resources.hpp"

namespace tytra::cost {

struct ResourceEstimate {
  ResourceVec total;
  Utilization util;
  bool fits{false};
};

/// Estimates the whole design's resource usage. The summary overload
/// reuses the one-traversal schedules, body partitions and port
/// resolutions instead of re-deriving them per function; the module-only
/// overload builds a summary internally. Results are bit-identical.
/// Preconditions: the module verifies; `summary` was built from `module`.
ResourceEstimate estimate_resources(const ir::Module& module,
                                    const DeviceCostDb& db);
ResourceEstimate estimate_resources(const ir::Module& module,
                                    const DeviceCostDb& db,
                                    const ir::AnalysisSummary& summary);

/// Estimates one function body (single instance, children included).
ResourceVec estimate_function(const ir::Module& module,
                              const ir::Function& function,
                              const DeviceCostDb& db);

}  // namespace tytra::cost
