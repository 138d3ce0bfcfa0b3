// Tests for the cost model: calibration (fitted Fig. 9 laws), resource
// estimation accuracy against the fabric ground truth (the Table II
// error bands), and the empirical bandwidth integration.

#include <gtest/gtest.h>

#include <cmath>

#include "tytra/cost/calibration.hpp"
#include "tytra/cost/report.hpp"
#include "tytra/cost/resource_model.hpp"
#include "tytra/fabric/cores.hpp"
#include "tytra/fabric/synth.hpp"
#include "tytra/ir/verifier.hpp"
#include "tytra/kernels/kernels.hpp"

namespace {

using namespace tytra;
using cost::DeviceCostDb;
using ir::Opcode;
using ir::ScalarType;

const target::DeviceDesc& dev() {
  static const target::DeviceDesc d = target::stratix_v_gsd8();
  return d;
}
const DeviceCostDb& db() {
  static const DeviceCostDb db = DeviceCostDb::calibrate(dev());
  return db;
}

double pct_err(double est, double actual) {
  return std::abs(est - actual) / std::max(1.0, std::abs(actual)) * 100.0;
}

TEST(Calibration, DividerFitInterpolatesUnseenWidth) {
  // Fig. 9's experiment: fit from probes, interpolate 24 bits, compare to
  // the synthesized actual (654 vs 652-style agreement: within ~1%).
  const ResourceVec est = db().op_cost(Opcode::Div, ScalarType::uint(24));
  const ResourceVec act =
      fabric::core_resources(Opcode::Div, ScalarType::uint(24), dev());
  EXPECT_LT(pct_err(est.aluts, act.aluts), 1.5);
}

TEST(Calibration, DividerLawIsQuadratic) {
  const auto& law = db().int_law(Opcode::Div);
  EXPECT_EQ(law.fit_degree, 2);
  ASSERT_EQ(law.aluts.coeffs().size(), 3u);
  EXPECT_NEAR(law.aluts.coeffs()[2], 1.0, 0.05);  // the x^2 coefficient
}

TEST(Calibration, AdderLawIsLinear) {
  const auto& law = db().int_law(Opcode::Add);
  EXPECT_EQ(law.fit_degree, 1);
  const ResourceVec est = db().op_cost(Opcode::Add, ScalarType::uint(40));
  const ResourceVec act =
      fabric::core_resources(Opcode::Add, ScalarType::uint(40), dev());
  EXPECT_LT(pct_err(est.aluts, act.aluts), 2.0);
}

TEST(Calibration, MultiplierDspStepsRecovered) {
  const auto& law = db().int_law(Opcode::Mul);
  const auto disc = law.dsps.discontinuities();
  ASSERT_GE(disc.size(), 3u);
  EXPECT_DOUBLE_EQ(disc[0], 19.0);
  EXPECT_DOUBLE_EQ(disc[1], 28.0);
  EXPECT_DOUBLE_EQ(law.dsps.eval(18), 1.0);
  EXPECT_DOUBLE_EQ(law.dsps.eval(32), 4.0);
}

TEST(Calibration, EstimatesAcrossOpsAndWidthsWithinFivePercent) {
  // Parameter sweep: the whole integer op set at unseen widths.
  for (int i = 0; i < ir::kNumOpcodes; ++i) {
    const auto op = static_cast<Opcode>(i);
    if (!ir::op_info(op).integer_ok) continue;
    for (const int w : {12, 20, 24, 40, 48}) {
      const ScalarType t = ScalarType::uint(static_cast<std::uint16_t>(w));
      const ResourceVec est = db().op_cost(op, t);
      const ResourceVec act = fabric::core_resources(op, t, dev());
      if (act.aluts > 20) {
        EXPECT_LT(pct_err(est.aluts, act.aluts), 6.0)
            << ir::opcode_name(op) << " w=" << w << " est=" << est.aluts
            << " act=" << act.aluts;
      }
      EXPECT_DOUBLE_EQ(est.dsps, act.dsps)
          << ir::opcode_name(op) << " w=" << w;
    }
  }
}

TEST(Calibration, FloatCostsProbeExactly) {
  const ResourceVec est = db().op_cost(Opcode::Mul, ScalarType::f32());
  const ResourceVec act =
      fabric::core_resources(Opcode::Mul, ScalarType::f32(), dev());
  EXPECT_EQ(est, act);
}

TEST(Calibration, HostTableMatchesLinkModel) {
  const membench::HostLinkModel host(dev().host);
  for (const std::uint64_t bytes : {1ULL << 16, 1ULL << 22, 1ULL << 28}) {
    EXPECT_NEAR(db().host_sustained(bytes), host.sustained_bw(bytes),
                host.sustained_bw(bytes) * 0.02);
  }
}

TEST(Calibration, IsOneTimeAndFastEnough) {
  EXPECT_LT(db().calibration_seconds(), 5.0);
}

// --------------------------------------------------------------------------
// Whole-design estimates vs fabric actuals (the Table II experiment)
// --------------------------------------------------------------------------

struct KernelCase {
  const char* name;
  ir::Module module;
};

std::vector<KernelCase> table2_kernels() {
  kernels::SorConfig sor;
  sor.im = sor.jm = sor.km = 16;
  kernels::HotspotConfig hs;
  hs.rows = hs.cols = 32;
  kernels::LavamdConfig lava;
  lava.particles = 1024;
  lava.elem = ir::ScalarType::uint(18);
  std::vector<KernelCase> cases;
  cases.push_back({"sor", kernels::make_sor(sor)});
  cases.push_back({"hotspot", kernels::make_hotspot(hs)});
  cases.push_back({"lavamd", kernels::make_lavamd(lava)});
  return cases;
}

TEST(ResourceModel, TableIIErrorBands) {
  for (const auto& c : table2_kernels()) {
    ASSERT_TRUE(ir::verify_ok(c.module)) << c.name;
    const auto est = cost::estimate_resources(c.module, db());
    const auto act = fabric::synthesize(c.module, dev());
    // The paper's worst reported error is 13% (LavaMD DSPs); most are
    // under ~7%. Hold the reproduction to the same band.
    EXPECT_LT(pct_err(est.total.aluts, act.total.aluts), 15.0) << c.name;
    EXPECT_LT(pct_err(est.total.regs, act.total.regs), 15.0) << c.name;
    if (act.total.dsps > 0) {
      EXPECT_LT(pct_err(est.total.dsps, act.total.dsps), 20.0) << c.name;
    }
    if (act.total.bram_bits > 0) {
      EXPECT_LT(pct_err(est.total.bram_bits, act.total.bram_bits), 5.0) << c.name;
    }
  }
}

TEST(ResourceModel, LavamdUsesNoBram) {
  kernels::LavamdConfig cfg;
  cfg.particles = 256;
  const auto est = cost::estimate_resources(kernels::make_lavamd(cfg), db());
  EXPECT_EQ(est.total.bram_bits, 0.0);  // no stream offsets (Table II row)
}

TEST(ResourceModel, EstimatesScaleWithLanes) {
  kernels::SorConfig cfg;
  cfg.im = cfg.jm = cfg.km = 8;
  const auto one = cost::estimate_resources(kernels::make_sor(cfg), db());
  cfg.lanes = 2;
  const auto two = cost::estimate_resources(kernels::make_sor(cfg), db());
  EXPECT_GT(two.total.aluts, one.total.aluts * 1.7);
  EXPECT_LT(two.total.aluts, one.total.aluts * 2.3);
}

TEST(ResourceModel, PerFunctionEstimateOfTheLaneBody) {
  kernels::SorConfig cfg;
  cfg.im = cfg.jm = cfg.km = 8;
  const ir::Module m = kernels::make_sor(cfg);
  const ir::Function* f0 = m.find_function("f0");
  ASSERT_NE(f0, nullptr);
  const ResourceVec body = cost::estimate_function(m, *f0, db());
  EXPECT_GT(body.aluts, 50);
  EXPECT_LT(body.aluts, cost::estimate_resources(m, db()).total.aluts);
}

TEST(CostReport, ProducesCompleteReportQuickly) {
  kernels::SorConfig cfg;
  cfg.im = cfg.jm = cfg.km = 16;
  const ir::Module m = kernels::make_sor(cfg);
  const cost::CostReport rep = cost::cost_design(m, db());
  EXPECT_TRUE(rep.valid);
  EXPECT_GT(rep.throughput.ekit, 0);
  EXPECT_GT(rep.resources.total.aluts, 0);
  // "only 0.3 seconds to evaluate one variant" — ours is far faster still.
  EXPECT_LT(rep.estimate_seconds, 0.3);
  const std::string text = cost::format_report(rep);
  EXPECT_NE(text.find("EKIT"), std::string::npos);
  EXPECT_NE(text.find("limiting factor"), std::string::npos);
}

}  // namespace
