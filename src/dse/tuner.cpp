#include "tytra/dse/tuner.hpp"

#include <sstream>

namespace tytra::dse {

std::string format_tune(const TuneResult& result) {
  std::ostringstream os;
  for (std::size_t i = 0; i < result.trajectory.size(); ++i) {
    const auto& s = result.trajectory[i];
    os << "step " << i << ": " << s.variant.describe() << "\n";
    os << "  " << s.action << "\n";
    os << "  EKIT " << s.report.throughput.ekit << "/s, limiting "
       << cost::wall_name(s.report.throughput.limiting)
       << (s.report.valid ? "" : " [does not fit]") << "\n";
  }
  os << result.verdict << "\n";
  // No valid step (empty trajectory, or every variant exceeded the
  // device) means no best to report — indexing trajectory[0] here used
  // to present a design that does not fit as "best".
  if (result.best) {
    os << "best: step " << *result.best << " ("
       << result.trajectory[*result.best].variant.describe() << ")\n";
  }
  return os.str();
}

}  // namespace tytra::dse
