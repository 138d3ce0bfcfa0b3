// Tour of two extensions the paper anticipates: the wall-guided
// auto-tuner and a self-checking Verilog testbench.
//
//   $ ./example_extensions_tour

#include <cstdio>
#include <memory>

#include "tytra/codegen/testbench.hpp"
#include "tytra/dse/session.hpp"
#include "tytra/kernels/kernels.hpp"
#include "tytra/sim/functional.hpp"

int main() {
  using namespace tytra;

  const auto db = cost::DeviceCostDb::calibrate(target::fig15_profile());

  // --- 1. Wall-guided tuning (the cost model's feedback path) --------------
  const std::uint64_t n = 24ULL * 24 * 24;
  const dse::LowerFn lower = [](const frontend::Variant& v) {
    kernels::SorConfig cfg;
    cfg.im = cfg.jm = cfg.km = 24;
    cfg.nki = 10;
    cfg.lanes = v.lanes();
    return kernels::make_sor(cfg);
  };
  dse::Job job;
  job.n = n;
  job.lower = std::make_shared<dse::FnLowerer>(lower);
  job.db = &db;
  dse::Session session;
  const auto tuned = session.tune(job);
  std::printf("=== targeted tuning ===\n%s\n", dse::format_tune(tuned).c_str());

  // --- 2. Self-checking Verilog testbench ----------------------------------
  kernels::SorConfig small;
  small.im = small.jm = small.km = 4;
  const ir::Module tiny = kernels::make_sor(small);
  const auto inputs = kernels::sor_inputs(small);
  const auto run = sim::run_functional(tiny, inputs);
  if (!run.ok()) {
    std::fprintf(stderr, "%s\n", run.error_message().c_str());
    return 1;
  }
  const std::string tb =
      codegen::emit_testbench(tiny, inputs, run.value().outputs);
  std::printf("=== testbench ===\ngenerated %zu bytes; first lines:\n%.400s...\n",
              tb.size(), tb.c_str());
  return 0;
}
