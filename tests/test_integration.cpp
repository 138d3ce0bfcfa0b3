// End-to-end integration tests across the whole flow (Fig. 1/11):
// functional front-end variant -> lowered TyTra-IR -> verifier -> cost
// model -> execution simulator -> HDL, on every kernel.

#include <gtest/gtest.h>

#include <memory>

#include "tytra/codegen/verilog.hpp"
#include "tytra/cost/report.hpp"
#include "tytra/dse/session.hpp"
#include "tytra/fabric/synth.hpp"
#include "tytra/ir/parser.hpp"
#include "tytra/ir/passes.hpp"
#include "tytra/ir/printer.hpp"
#include "tytra/ir/verifier.hpp"
#include "tytra/kernels/kernels.hpp"
#include "tytra/kernels/streams.hpp"
#include "tytra/sim/cycle_model.hpp"
#include "tytra/sim/functional.hpp"

namespace {

using namespace tytra;

const cost::DeviceCostDb& db() {
  static const auto c = cost::DeviceCostDb::calibrate(target::stratix_v_gsd8());
  return c;
}

TEST(EndToEnd, SorFullFlow) {
  // 1. Front-end: reshape the baseline into a 4-lane variant.
  const std::uint64_t n = 12ULL * 12 * 12;
  const frontend::Variant variant =
      frontend::reshape_to(frontend::baseline_variant(n), 4, frontend::ParAnn::Par);

  // 2. Lower.
  kernels::SorConfig cfg;
  cfg.im = cfg.jm = cfg.km = 12;
  cfg.lanes = variant.lanes();
  ir::Module module = kernels::make_sor(cfg);

  // 3. Verify + optimize.
  ASSERT_TRUE(ir::verify_ok(module));
  ir::optimize(module);
  ASSERT_TRUE(ir::verify_ok(module));

  // 4. Cost.
  const cost::CostReport report = cost::cost_design(module, db());
  EXPECT_TRUE(report.valid);
  EXPECT_EQ(report.params.knl, 4u);
  EXPECT_GT(report.throughput.ekit, 0);

  // 5. Execute functionally and against the wall-clock model.
  const auto inputs =
      kernels::partition_streams(kernels::sor_inputs(cfg), cfg.lanes);
  const auto run = sim::run_functional(module, inputs);
  ASSERT_TRUE(run.ok()) << run.error_message();
  EXPECT_EQ(run.value().items, n);
  const auto timing = sim::simulate_timing(module, db().device());
  EXPECT_GT(timing.total_seconds, 0);

  // 6. Back-end artifacts.
  const auto hdl = codegen::emit_verilog(module);
  EXPECT_GT(hdl.source.size(), 1000u);

  // 7. The "vendor tool" agrees the design fits.
  const auto synth = fabric::synthesize(module, db().device());
  EXPECT_TRUE(synth.fits);
}

TEST(EndToEnd, TextualIrThroughEntireFlow) {
  // Author a kernel purely as IR text, run everything on it.
  const char* src = R"(
!name = saxpy
!ngs  = 65536
!nki  = 4
!form = B
@main.x = addrSpace(1) i32, !"istream", !"CONT", !0, !"sx"
@main.y = addrSpace(1) i32, !"istream", !"CONT", !0, !"sy"
@main.out = addrSpace(1) i32, !"ostream", !"CONT", !0, !"so"
define void @f0(i32 %x, i32 %y) pipe {
  i32 %p = mul i32 %x, 3
  i32 %s = add i32 %p, %y
  i32 @out = mov i32 %s
}
define void @main () { call @f0(@x, @y) pipe }
)";
  ir::Module m = ir::parse_module_or_die(src);
  ASSERT_TRUE(ir::verify_ok(m));

  const auto report = cost::cost_design(m, db());
  EXPECT_TRUE(report.valid);

  sim::StreamMap inputs;
  inputs["x"] = {1, 2, 3, 4};
  inputs["y"] = {10, 20, 30, 40};
  const auto run = sim::run_functional(m, inputs);
  ASSERT_TRUE(run.ok()) << run.error_message();
  EXPECT_EQ(run.value().outputs.at("out"),
            (std::vector<double>{13, 26, 39, 52}));

  const auto hdl = codegen::emit_verilog(m);
  EXPECT_NE(hdl.source.find("module saxpy_top"), std::string::npos);
}

TEST(EndToEnd, DseSelectionBeatsBaselineOnConstrainedDevice) {
  const auto fig15 = cost::DeviceCostDb::calibrate(target::fig15_profile());
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
  job.db = &fig15;
  job.max_lanes = 16;
  dse::Session session;
  const auto result = session.explore(job);
  ASSERT_TRUE(result.best.has_value());
  const auto& best = result.entries[*result.best];
  dse::Job one_lane = job;
  one_lane.max_lanes = 1;
  const auto baseline = session.explore(one_lane).entries.front().report;
  EXPECT_GT(best.report.throughput.ekit, baseline.throughput.ekit * 3.0);

  // The chosen design is synthesizable on the same device.
  const auto synth =
      fabric::synthesize(lower(best.variant), target::fig15_profile());
  EXPECT_TRUE(synth.fits);
}

TEST(EndToEnd, OptimizedAndRawKernelsComputeIdentically) {
  for (int k = 0; k < 3; ++k) {
    ir::Module raw;
    sim::StreamMap inputs;
    std::string out_port;
    switch (k) {
      case 0: {
        kernels::SorConfig cfg;
        cfg.im = cfg.jm = cfg.km = 6;
        raw = kernels::make_sor(cfg);
        inputs = kernels::sor_inputs(cfg);
        out_port = "p_new";
        break;
      }
      case 1: {
        kernels::HotspotConfig cfg;
        cfg.rows = cfg.cols = 8;
        raw = kernels::make_hotspot(cfg);
        inputs = kernels::hotspot_inputs(cfg);
        out_port = "temp_new";
        break;
      }
      default: {
        kernels::LavamdConfig cfg;
        cfg.particles = 128;
        raw = kernels::make_lavamd(cfg);
        inputs = kernels::lavamd_inputs(cfg);
        out_port = "pot";
        break;
      }
    }
    ir::Module opt = raw;
    ir::optimize(opt);
    const auto a = sim::run_functional(raw, inputs);
    const auto b = sim::run_functional(opt, inputs);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.value().outputs.at(out_port), b.value().outputs.at(out_port))
        << "kernel " << k;
  }
}

TEST(EndToEnd, EstimatorRemainsFastAtScale) {
  // Cost a 16-lane SOR (170 ports, ~300 instructions) and confirm the
  // paper's fast-evaluation property holds with margin.
  kernels::SorConfig cfg;
  cfg.im = cfg.jm = cfg.km = 24;
  cfg.lanes = 16;
  const ir::Module m = kernels::make_sor(cfg);
  const auto report = cost::cost_design(m, db());
  EXPECT_LT(report.estimate_seconds, 0.05);  // paper: 0.3 s per variant
  EXPECT_TRUE(report.valid);
}

}  // namespace
