// Tests for the design-space explorer: ranking by EKIT, wall detection
// (the Fig. 15 structure), invalid-variant filtering, and the MaxJ-like
// baseline comparison of §VII.

#include <gtest/gtest.h>

#include <memory>

#include "tytra/dse/session.hpp"
#include "tytra/kernels/kernels.hpp"

namespace {

using namespace tytra;
using dse::DseResult;

constexpr std::uint32_t kDim = 24;  // 13824 work-items (the Fig. 15 grid)

dse::LowerFn sor_lower(ir::ExecForm form) {
  return [form](const frontend::Variant& v) {
    kernels::SorConfig cfg;
    cfg.im = cfg.jm = cfg.km = kDim;
    cfg.lanes = v.lanes();
    cfg.nki = 10;
    cfg.form = form;
    return kernels::make_sor(cfg);
  };
}

const cost::DeviceCostDb& fig15_db() {
  static const auto db = cost::DeviceCostDb::calibrate(target::fig15_profile());
  return db;
}

dse::Job sor_job(ir::ExecForm form) {
  dse::Job job;
  job.n = kDim * kDim * kDim;
  job.lower = std::make_shared<dse::FnLowerer>(sor_lower(form));
  job.db = &fig15_db();
  return job;
}

/// The lane-16 sweep of the SOR grid on the fig15 profile.
DseResult sweep(ir::ExecForm form) {
  dse::Session session;
  return session.explore(sor_job(form));
}

TEST(Dse, ExploresAllLaneCounts) {
  const DseResult r = sweep(ir::ExecForm::B);
  // 13824 work-items: divisors 1,2,3,4,6,8,9,12,16 within the cap.
  ASSERT_EQ(r.entries.size(), 9u);
  EXPECT_EQ(r.entries.front().report.params.knl, 1u);
  EXPECT_EQ(r.entries.back().report.params.knl, 16u);
}

TEST(Dse, InvalidVariantsAreFilteredFromBest) {
  const DseResult r = sweep(ir::ExecForm::B);
  ASSERT_TRUE(r.best.has_value());
  const auto& best = r.entries[*r.best];
  EXPECT_TRUE(best.report.valid);
  // On the fig15 profile the computation wall hits at six lanes: the 8-,
  // 12- and 16-lane variants exceed the ALUT budget.
  EXPECT_EQ(best.report.params.knl, 6u);
  bool some_invalid = false;
  for (const auto& e : r.entries) some_invalid |= !e.report.valid;
  EXPECT_TRUE(some_invalid);
}

TEST(Dse, BestBeatsMaxjBaseline) {
  // The case-study claim: exploring the space beats the HLS tool's
  // pipeline-only implementation.
  const DseResult r = sweep(ir::ExecForm::B);
  dse::Session session;
  dse::Job one_lane = sor_job(ir::ExecForm::B);
  one_lane.max_lanes = 1;
  const auto baseline = session.explore(one_lane).entries.front().report;
  ASSERT_TRUE(r.best.has_value());
  EXPECT_GT(r.entries[*r.best].report.throughput.ekit,
            baseline.throughput.ekit * 2.0);
  EXPECT_EQ(baseline.params.knl, 1u);
}

TEST(Dse, FormAHitsHostWallEarlierThanFormB) {
  // Fig. 15: the host communication wall sits at ~4 lanes for form A;
  // with form B it moves out to ~16 lanes.
  const DseResult a = sweep(ir::ExecForm::A);
  const DseResult b = sweep(ir::ExecForm::B);
  auto wall_lanes = [](const DseResult& r, cost::Wall wall) -> std::uint32_t {
    for (const auto& e : r.entries) {
      if (e.report.throughput.limiting == wall) return e.report.params.knl;
    }
    return 0;
  };
  const std::uint32_t host_wall_a = wall_lanes(a, cost::Wall::HostBandwidth);
  EXPECT_GT(host_wall_a, 0u);
  EXPECT_LE(host_wall_a, 8u);
  // Form B never hits the host wall in this sweep.
  EXPECT_EQ(wall_lanes(b, cost::Wall::HostBandwidth), 0u);
}

TEST(Dse, EkitImprovesUntilTheWall) {
  const DseResult r = sweep(ir::ExecForm::B);
  double prev = 0;
  for (const auto& e : r.entries) {
    if (!e.report.valid) break;
    EXPECT_GE(e.report.throughput.ekit, prev * 0.999);
    prev = e.report.throughput.ekit;
  }
}

TEST(Dse, SweepFormatterListsEveryVariant) {
  const DseResult r = sweep(ir::ExecForm::B);
  const std::string text = dse::format_sweep(r);
  EXPECT_NE(text.find("lanes"), std::string::npos);
  EXPECT_NE(text.find("best:"), std::string::npos);
  EXPECT_NE(text.find("INVALID"), std::string::npos);
  // One line per entry plus header and best line.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'),
            static_cast<std::ptrdiff_t>(r.entries.size()) + 2);
}

TEST(Dse, ExplorationIsFast) {
  const DseResult r = sweep(ir::ExecForm::B);
  // The paper: 0.3 s/variant in Perl. Our C++ estimator is far faster;
  // hold the whole sweep under that budget per variant.
  EXPECT_LT(r.explore_seconds / static_cast<double>(r.entries.size()), 0.3);
}

}  // namespace
