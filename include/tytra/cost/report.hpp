#pragma once

// The combined cost report the TyTra back-end compiler emits for one
// design variant (Fig. 2): resource estimates, throughput estimate with
// its limiting factor, validity against the device limits, and the time
// the estimation itself took (the paper's headline: ~0.3 s per variant,
// >200x faster than a vendor preliminary estimate).

#include <string>

#include "tytra/cost/calibration.hpp"
#include "tytra/cost/resource_model.hpp"
#include "tytra/cost/throughput.hpp"
#include "tytra/ir/analysis.hpp"
#include "tytra/ir/module.hpp"
#include "tytra/support/binio.hpp"

namespace tytra::cost {

struct CostReport {
  std::string design_name;
  ir::ConfigClass config{ir::ConfigClass::C2};
  ir::DesignParams params;
  ResourceEstimate resources;
  ThroughputEstimate throughput;
  /// A design is valid when it fits the device and its streams fit the
  /// available IO bandwidth.
  bool valid{false};
  std::string invalid_reason;
  double estimate_seconds{0};  ///< wall-clock cost of producing this report
};

/// Runs the full cost model on a design variant. The module-only overload
/// builds the analysis summary itself; callers that already hold one
/// pass it in so the whole report costs exactly one module traversal.
/// Preconditions: the module verifies.
CostReport cost_design(const ir::Module& module, const DeviceCostDb& db);
CostReport cost_design(const ir::Module& module, const DeviceCostDb& db,
                       const ir::AnalysisSummary& summary);

/// Human-readable rendering of the report.
std::string format_report(const CostReport& report);

/// Serializes `report` field-by-field into a snapshot payload stream.
/// Exact: a round-tripped report is bit-identical (doubles by bit
/// pattern), so output rendered from restored reports matches output
/// rendered from freshly-computed ones byte for byte.
void save_report(binio::Encoder& enc, const CostReport& report);

/// Decodes one report. Enum fields are range-checked; any violation (or a
/// truncated stream) fails the decoder — check `dec.ok()` after the batch.
CostReport load_report(binio::Decoder& dec);

}  // namespace tytra::cost
