#pragma once

// Targeted auto-tuning: the feedback path the cost model enables ("Our
// cost model also exposes the performance limiting parameter, allowing
// targeted optimization and opening the route to a feedback path in our
// compiler flow with automated, targeted tuning of designs", §I).
//
// Instead of exhaustively sweeping the space, the tuner walks it: at each
// step it reads the limiting factor of the current variant and applies
// the one transformation that attacks that wall (more lanes on a compute
// wall; stop with a diagnosis on a bandwidth wall, which no amount of
// replication fixes). The walk is Session::tune (dse/session.hpp); this
// header holds its result types and renderer.

#include <optional>
#include <string>
#include <vector>

#include "tytra/dse/explorer.hpp"

namespace tytra::dse {

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

}  // namespace tytra::dse
