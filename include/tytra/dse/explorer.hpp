#pragma once

// Design-space exploration: generate variants through type
// transformations, lower each to TyTra-IR, run the cost model, filter
// invalid designs (resource / bandwidth walls), and rank the rest by EKIT
// — the guided optimisation search of paper §II/§VI.
//
// This header holds the result types of a sweep and of a tune walk, and
// their renderers (all defined in src/dse/render.cpp); the engine is
// dse::Session (dse/session.hpp). Evaluation is batched and
// parallel, and the results are merged deterministically in enumeration
// order — the parallel sweep is byte-identical to the sequential one.
// Besides the single best design, the sweep yields the Pareto frontier
// over throughput, resource pressure and bandwidth share, so callers see
// the whole trade-off surface.

#include <optional>
#include <string>
#include <vector>

#include "tytra/cost/report.hpp"
#include "tytra/dse/cache.hpp"
#include "tytra/dse/lowerer.hpp"
#include "tytra/frontend/transform.hpp"
#include "tytra/ir/module.hpp"

namespace tytra::dse {

struct DseEntry {
  frontend::Variant variant;
  cost::CostReport report;

  DseEntry(frontend::Variant v, cost::CostReport r)
      : variant(std::move(v)), report(std::move(r)) {}
};

/// One point of the throughput / resource / bandwidth trade-off surface.
struct ParetoPoint {
  std::size_t index{0};  ///< into DseResult::entries
  double ekit{0};        ///< objective 1: maximize
  double util_max{0};    ///< objective 2: minimize (binding resource, %)
  double bw_share{0};    ///< objective 3: minimize (DRAM-streaming share
                         ///< of the per-instance time, 0..1)
};

/// The DRAM-streaming share of a design's per-instance time (0 for form-C
/// designs, ~1 on a bandwidth wall), the frontier's third objective.
double bandwidth_share(const cost::CostReport& report);

struct DseResult {
  std::vector<DseEntry> entries;           ///< in enumeration order
  std::optional<std::size_t> best;         ///< highest-EKIT valid entry
  std::vector<ParetoPoint> pareto;         ///< non-dominated valid entries,
                                           ///< in enumeration order
  double explore_seconds{0};               ///< total cost-model time
  CacheStats cache_stats;                  ///< this sweep's hits/misses
                                           ///< (zero without a cache)

  [[nodiscard]] const DseEntry* best_entry() const {
    return best ? &entries[*best] : nullptr;
  }
};

/// Formats the sweep as a table (one row per lane count: utilization per
/// resource class, bandwidth shares and EKIT — the data behind Fig. 15).
std::string format_sweep(const DseResult& result);

/// Formats the Pareto frontier (one row per non-dominated design).
std::string format_pareto(const DseResult& result);

// Targeted auto-tuning, the feedback path of §I: instead of sweeping the
// space, Session::tune walks it, reading each step's limiting wall and
// applying the one transformation that attacks it (more lanes on a
// compute wall; stop with a diagnosis on a bandwidth wall, which no amount
// of replication fixes).

struct TuneStep {
  frontend::Variant variant;
  cost::CostReport report;
  std::string action;  ///< what the tuner did and why

  TuneStep(frontend::Variant v, cost::CostReport r, std::string a)
      : variant(std::move(v)), report(std::move(r)), action(std::move(a)) {}
};

struct TuneResult {
  std::vector<TuneStep> trajectory;
  /// Index of the highest-EKIT valid step; nullopt when no step is valid
  /// (an empty trajectory, or every visited variant exceeds the device —
  /// the same "no valid design" encoding as DseResult::best).
  std::optional<std::size_t> best;
  std::string verdict;  ///< final diagnosis (which wall stopped progress)

  /// Precondition: `best` is engaged (at least one valid step).
  [[nodiscard]] const TuneStep& best_step() const { return trajectory[*best]; }
};

/// Renders the tuning trajectory.
std::string format_tune(const TuneResult& result);

// The JSON counterparts (`tytra-cc --json` and the daemon's job frames).
std::string format_sweep_json(const DseResult& result);
std::string format_tune_json(const TuneResult& result);

}  // namespace tytra::dse
