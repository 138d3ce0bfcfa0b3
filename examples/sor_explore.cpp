// Design-space exploration of the SOR kernel (the paper's running
// example): generate reshaped variants through type transformations, cost
// every variant, identify the walls, pick the best, compare it against
// the MaxJ-like HLS baseline, and emit synthesizeable Verilog for the
// winner.
//
//   $ ./example_sor_explore

#include <cstdio>
#include <memory>

#include "tytra/codegen/verilog.hpp"
#include "tytra/dse/session.hpp"
#include "tytra/kernels/kernels.hpp"

int main() {
  using namespace tytra;

  constexpr std::uint32_t kDim = 24;
  const std::uint64_t n = static_cast<std::uint64_t>(kDim) * kDim * kDim;

  const target::DeviceDesc device = target::fig15_profile();
  const auto db = cost::DeviceCostDb::calibrate(device);

  const dse::LowerFn lower = [&](const frontend::Variant& v) {
    kernels::SorConfig cfg;
    cfg.im = cfg.jm = cfg.km = kDim;
    cfg.nki = 10;
    cfg.lanes = v.lanes();
    cfg.form = ir::ExecForm::B;
    return kernels::make_sor(cfg);
  };

  std::printf("exploring SOR variants on %s (%llu work-items)...\n\n",
              device.name.c_str(), static_cast<unsigned long long>(n));
  dse::Session session;  // lane cap 16, one worker per hardware thread
  dse::Job job;
  job.n = n;
  job.lower = std::make_shared<dse::FnLowerer>(lower);
  job.db = &db;
  const dse::DseResult result = session.explore(job);
  std::printf("%s\n", dse::format_sweep(result).c_str());
  std::printf("explored %zu variants in %.3f s (%.1f ms per variant)\n\n",
              result.entries.size(), result.explore_seconds,
              1e3 * result.explore_seconds /
                  static_cast<double>(result.entries.size()));

  // The HLS baseline is the one-lane sweep: pipeline parallelism only.
  dse::Job one_lane = job;
  one_lane.max_lanes = 1;
  const auto baseline = session.explore(one_lane).entries.front().report;
  const auto* best = result.best_entry();
  if (best == nullptr) {
    std::fprintf(stderr, "no valid variant found\n");
    return 1;
  }
  std::printf("HLS baseline (pipeline only): EKIT %.1f /s\n",
              baseline.throughput.ekit);
  std::printf("best TyTra variant %s:        EKIT %.1f /s  (%.2fx)\n\n",
              best->variant.describe().c_str(), best->report.throughput.ekit,
              best->report.throughput.ekit / baseline.throughput.ekit);

  // Emit HDL for the selected variant (first lines shown).
  const ir::Module winner = lower(best->variant);
  const codegen::VerilogDesign design = codegen::emit_verilog(winner);
  std::printf("generated %zu bytes of Verilog (top module %s, KPD %d, %zu"
              " functional units)\n",
              design.source.size(), design.top_module.c_str(),
              design.pipeline_depth, design.primitive_count);
  std::printf("--- first lines ---\n%.600s...\n", design.source.c_str());
  return 0;
}
