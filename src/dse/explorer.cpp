#include "tytra/dse/explorer.hpp"

#include <sstream>

#include "tytra/support/strings.hpp"

namespace tytra::dse {

std::string format_sweep(const DseResult& result) {
  std::ostringstream os;
  os << tytra::pad_left("lanes", 6) << tytra::pad_left("Regs%", 8)
     << tytra::pad_left("Aluts%", 8) << tytra::pad_left("BRAM%", 8)
     << tytra::pad_left("DSPs%", 8) << tytra::pad_left("EKIT/s", 12)
     << "  limiting" << "\n";
  for (const auto& e : result.entries) {
    const auto& u = e.report.resources.util;
    os << tytra::pad_left(std::to_string(e.report.params.knl), 6)
       << tytra::pad_left(tytra::format_fixed(u.regs, 1), 8)
       << tytra::pad_left(tytra::format_fixed(u.aluts, 1), 8)
       << tytra::pad_left(tytra::format_fixed(u.bram, 1), 8)
       << tytra::pad_left(tytra::format_fixed(u.dsps, 1), 8)
       << tytra::pad_left(tytra::format_fixed(e.report.throughput.ekit, 1), 12)
       << "  " << cost::wall_name(e.report.throughput.limiting)
       << (e.report.valid ? "" : "  [INVALID: exceeds device]") << "\n";
  }
  if (result.best) {
    os << "best: " << result.entries[*result.best].variant.describe() << "\n";
  }
  return os.str();
}

std::string format_pareto(const DseResult& result) {
  std::ostringstream os;
  os << tytra::pad_left("lanes", 6) << tytra::pad_left("EKIT/s", 12)
     << tytra::pad_left("util%", 8) << tytra::pad_left("bw-share", 10)
     << "  limiting" << "\n";
  for (const auto& p : result.pareto) {
    const auto& e = result.entries[p.index];
    os << tytra::pad_left(std::to_string(e.report.params.knl), 6)
       << tytra::pad_left(tytra::format_fixed(p.ekit, 1), 12)
       << tytra::pad_left(tytra::format_fixed(p.util_max, 1), 8)
       << tytra::pad_left(tytra::format_fixed(p.bw_share, 3), 10)
       << "  " << cost::wall_name(e.report.throughput.limiting) << "\n";
  }
  os << "frontier: " << result.pareto.size() << " of " << result.entries.size()
     << " designs\n";
  return os.str();
}

}  // namespace tytra::dse
