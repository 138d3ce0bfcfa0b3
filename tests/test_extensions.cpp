// Tests for the paper's anticipated extensions: the roofline placement of
// a costed design and the targeted auto-tuner.

#include <gtest/gtest.h>

#include <memory>

#include "tytra/cost/roofline.hpp"
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
