// Tests for the paper's anticipated extensions: tiled memory execution
// (the finer-grained spectrum between forms A/B/C), the roofline
// representation, the MaxJ wrapper generator and the targeted auto-tuner.

#include <gtest/gtest.h>

#include <memory>

#include "tytra/codegen/maxj.hpp"
#include "tytra/cost/roofline.hpp"
#include "tytra/cost/tiling.hpp"
#include "tytra/dse/session.hpp"
#include "tytra/kernels/kernels.hpp"

namespace {

using namespace tytra;

const target::DeviceDesc& dev() {
  static const auto d = target::stratix_v_gsd8();
  return d;
}
const cost::DeviceCostDb& db() {
  static const auto c = cost::DeviceCostDb::calibrate(dev());
  return c;
}

kernels::SorConfig sor32() {
  kernels::SorConfig cfg;
  cfg.im = cfg.jm = cfg.km = 32;
  cfg.nki = 100;
  return cfg;
}

// --------------------------------------------------------------------------
// Tiling
// --------------------------------------------------------------------------

TEST(Tiling, FitPredicateRespectsLocalMemory) {
  EXPECT_TRUE(cost::tile_fits(dev(), 1024, 10));
  // 2x (double buffer) x 10 streams x 4B x N must exceed BRAM eventually.
  EXPECT_FALSE(cost::tile_fits(dev(), 1ULL << 26, 10));
}

TEST(Tiling, TileSizeTradesStagingEfficiencyAgainstLatency) {
  // Tiny tiles pay per-transfer setup on every stage (bad sustained
  // bandwidth); huge tiles pay a long first-tile priming latency. The
  // model must show the small-tile penalty and an interior/boundary
  // optimum found by best_tile.
  const auto in = cost::resolve_inputs(kernels::make_sor(sor32()), db());
  const auto tiny = cost::ekit_tiled(in, 256, db());
  const auto mid = cost::ekit_tiled(in, 2048, db());
  EXPECT_GT(mid.ekit, tiny.ekit);

  const auto choice = cost::best_tile(kernels::make_sor(sor32()), db());
  ASSERT_TRUE(choice.has_value());
  for (const std::uint64_t tile : {256ULL, 1024ULL, 4096ULL, 16384ULL}) {
    EXPECT_GE(choice->estimate.ekit, cost::ekit_tiled(in, tile, db()).ekit * 0.999)
        << "tile=" << tile;
  }
}

TEST(Tiling, WholeRangeTileNeverBeatsItself) {
  // A tile covering the whole NDRange is the form-B/C limit: the best
  // choice can only be at least as good as any smaller tile.
  const ir::Module m = kernels::make_sor(sor32());
  const auto choice = cost::best_tile(m, db());
  ASSERT_TRUE(choice.has_value());
  const auto in = cost::resolve_inputs(m, db());
  for (const std::uint64_t tile : {512ULL, 2048ULL}) {
    EXPECT_GE(choice->estimate.ekit, cost::ekit_tiled(in, tile, db()).ekit);
  }
}

TEST(Tiling, DegenerateInputs) {
  cost::EkitInputs in;
  EXPECT_EQ(cost::ekit_tiled(in, 1024, db()).ekit, 0.0);
  const auto resolved = cost::resolve_inputs(kernels::make_sor(sor32()), db());
  EXPECT_EQ(cost::ekit_tiled(resolved, 0, db()).ekit, 0.0);
}

// --------------------------------------------------------------------------
// Roofline
// --------------------------------------------------------------------------

TEST(Roofline, SorPlacement) {
  const auto pt = cost::roofline(kernels::make_sor(sor32()), db());
  EXPECT_GT(pt.arithmetic_intensity, 0.1);
  EXPECT_LT(pt.arithmetic_intensity, 10.0);  // ~19 ops / 40 bytes
  EXPECT_GT(pt.ops_ceiling, 0);
  EXPECT_GT(pt.attainable_ops, 0);
  EXPECT_LE(pt.attainable_ops, std::max(pt.ops_ceiling, pt.bw_roof_ops));
  // Achieved cannot exceed attainable (the roofs are roofs).
  EXPECT_LE(pt.achieved_ops, pt.attainable_ops * 1.05);
}

TEST(Roofline, MoreLanesRaiseTheComputeRoof) {
  kernels::SorConfig cfg = sor32();
  const auto one = cost::roofline(kernels::make_sor(cfg), db());
  cfg.lanes = 4;
  const auto four = cost::roofline(kernels::make_sor(cfg), db());
  EXPECT_NEAR(four.ops_ceiling / one.ops_ceiling, 4.0, 0.01);
  // AI is a property of the algorithm, not the variant.
  EXPECT_NEAR(four.arithmetic_intensity, one.arithmetic_intensity, 1e-9);
}

TEST(Roofline, AsciiChartRendersDesignMark) {
  const auto pt = cost::roofline(kernels::make_sor(sor32()), db());
  const std::string chart = cost::format_roofline_ascii(pt);
  EXPECT_NE(chart.find('X'), std::string::npos);
  EXPECT_NE(chart.find("ops/byte"), std::string::npos);
}

// --------------------------------------------------------------------------
// MaxJ wrapper
// --------------------------------------------------------------------------

TEST(Maxj, WrapperDeclaresEveryPort) {
  const ir::Module m = kernels::make_sor(sor32());
  const auto wrapper = codegen::emit_maxj_wrapper(m);
  EXPECT_EQ(wrapper.kernel_name, "SorC2Kernel");
  for (const auto& p : m.ports) {
    EXPECT_NE(wrapper.kernel_class.find("\"" + p.name + "\""),
              std::string::npos)
        << p.name;
  }
  EXPECT_NE(wrapper.kernel_class.find("dfeUInt(18)"), std::string::npos);
  EXPECT_NE(wrapper.kernel_class.find("io.output"), std::string::npos);
  EXPECT_NE(wrapper.kernel_class.find("pushHDLNode"), std::string::npos);
}

TEST(Maxj, ManagerReflectsMemoryExecutionForm) {
  kernels::SorConfig cfg = sor32();
  cfg.form = ir::ExecForm::A;
  const auto form_a = codegen::emit_maxj_wrapper(kernels::make_sor(cfg));
  EXPECT_NE(form_a.manager_class.find("ALL_CPU"), std::string::npos);
  cfg.form = ir::ExecForm::B;
  const auto form_b = codegen::emit_maxj_wrapper(kernels::make_sor(cfg));
  EXPECT_NE(form_b.manager_class.find("ALL_LMEM"), std::string::npos);
}

TEST(Maxj, FloatAndVectorTypesMapped) {
  ir::Module m = kernels::make_sor(sor32());
  m.ports[0].type = ir::Type::scalar_of(ir::ScalarType::f32());
  m.ports[1].type = ir::Type::vector_of(ir::ScalarType::uint(18), 4);
  const auto wrapper = codegen::emit_maxj_wrapper(m);
  EXPECT_NE(wrapper.kernel_class.find("dfeFloat(8, 24)"), std::string::npos);
  EXPECT_NE(wrapper.kernel_class.find("DFEVectorType"), std::string::npos);
}

// --------------------------------------------------------------------------
// Tuner
// --------------------------------------------------------------------------

dse::LowerFn sor_lower_fig15() {
  return [](const frontend::Variant& v) {
    kernels::SorConfig cfg;
    cfg.im = cfg.jm = cfg.km = 24;
    cfg.nki = 10;
    cfg.lanes = v.lanes();
    return kernels::make_sor(cfg);
  };
}

/// A job over `lower`. The tuner's walk is capped at `max_lanes`; 1024
/// leaves it to the walls.
dse::Job fn_job(std::uint64_t n, dse::LowerFn lower,
                const cost::DeviceCostDb& db, std::uint32_t max_lanes = 1024) {
  dse::Job job;
  job.n = n;
  job.lower = std::make_shared<dse::FnLowerer>(std::move(lower));
  job.db = &db;
  job.max_lanes = max_lanes;
  return job;
}

TEST(Tuner, ClimbsToTheWallAndStops) {
  const auto fig15 = cost::DeviceCostDb::calibrate(target::fig15_profile());
  dse::Session session;
  const auto result =
      session.tune(fn_job(24 * 24 * 24, sor_lower_fig15(), fig15));
  ASSERT_GE(result.trajectory.size(), 2u);
  // Every step until the stop improves EKIT.
  for (std::size_t i = 1; i + 1 < result.trajectory.size(); ++i) {
    EXPECT_GE(result.trajectory[i].report.throughput.ekit,
              result.trajectory[i - 1].report.throughput.ekit);
  }
  const auto& best = result.best_step();
  EXPECT_TRUE(best.report.valid);
  EXPECT_GT(best.report.params.knl, 1u);
  EXPECT_FALSE(result.verdict.empty());
}

TEST(Tuner, FindsTheSweepOptimumWithFewerEvaluations) {
  const auto fig15 = cost::DeviceCostDb::calibrate(target::fig15_profile());
  const std::uint64_t n = 24 * 24 * 24;
  dse::Session session;
  const auto tuned = session.tune(fn_job(n, sor_lower_fig15(), fig15));
  const auto swept = session.explore(fn_job(n, sor_lower_fig15(), fig15, 16));
  ASSERT_TRUE(swept.best.has_value());
  // The tuner reaches within a few percent of the exhaustive optimum.
  EXPECT_GT(tuned.best_step().report.throughput.ekit,
            swept.entries[*swept.best].report.throughput.ekit * 0.95);
  EXPECT_LE(tuned.trajectory.size(), swept.entries.size());
}

TEST(Tuner, DiagnosesBandwidthWalls) {
  // On the real Stratix-V, SOR saturates DRAM before it runs out of logic:
  // the tuner must stop with a bandwidth diagnosis, not spin forever.
  const dse::LowerFn lower = [](const frontend::Variant& v) {
    kernels::SorConfig cfg;
    cfg.im = cfg.jm = cfg.km = 32;
    cfg.lanes = v.lanes();
    return kernels::make_sor(cfg);
  };
  dse::Session session;
  const auto result = session.tune(fn_job(32 * 32 * 32, lower, db()));
  EXPECT_NE(result.verdict.find("wall"), std::string::npos);
  const std::string text = dse::format_tune(result);
  EXPECT_NE(text.find("step 0"), std::string::npos);
  EXPECT_NE(text.find("best:"), std::string::npos);
}

}  // namespace
