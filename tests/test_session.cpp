// Tests for the dse::Session campaign API and the kernels::Registry: the
// session cache shared by sweeps and tune walks, the campaign's shared
// warm cache and merged Pareto view, registry lookup/enumeration/
// validation, and the API-boundary argument checks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>

#include "tytra/dse/session.hpp"
#include "tytra/kernels/kernels.hpp"
#include "tytra/kernels/lowerers.hpp"
#include "tytra/kernels/registry.hpp"

namespace {

using namespace tytra;
using kernels::Registry;

const cost::DeviceCostDb& preset_db(const std::string& name) {
  static std::map<std::string, cost::DeviceCostDb> dbs;
  const auto it = dbs.find(name);
  if (it != dbs.end()) return it->second;
  return dbs.emplace(name, cost::DeviceCostDb::calibrate(*target::preset(name)))
      .first->second;
}

struct KernelCase {
  const char* workload;
  std::uint32_t nd;
};

// Small problem instances: the identity claims do not depend on size.
constexpr KernelCase kCases[] = {{"sor", 8}, {"hotspot", 12}, {"lavamd", 64}};

dse::Job registry_job(const char* workload, std::uint32_t nd,
                      const cost::DeviceCostDb& db) {
  auto job = Registry::instance().make_job(workload, nd);
  EXPECT_TRUE(job.ok()) << job.error_message();
  dse::Job out = std::move(job).take();
  out.db = &db;
  return out;
}

// --------------------------------------------------------------------------
// Session cache
// --------------------------------------------------------------------------

TEST(Session, TuneRidesTheSessionCacheAfterExplore) {
  const auto& db = preset_db("fig15");
  dse::Session session;
  // nd=24: large enough that the tuner actually walks lanes before a
  // wall stops it (nd=8 is bandwidth-bound at a single lane).
  dse::Job job = registry_job("sor", 24, db);
  session.explore(job);
  const auto before = session.cache()->stats();
  const dse::TuneResult tuned = session.tune(job);
  const auto after = session.cache()->stats();
  EXPECT_GE(tuned.trajectory.size(), 2u);
  EXPECT_EQ(after.misses, before.misses);  // nothing new to evaluate
  // Keyed lowerer + warm cache: the walk answers pre-lowering.
  EXPECT_EQ(after.variant_hits - before.variant_hits,
            tuned.trajectory.size());
}

// --------------------------------------------------------------------------
// Campaigns
// --------------------------------------------------------------------------

TEST(Campaign, TwoDevicesShareOneCacheWithDeviceIsolation) {
  dse::Session session;
  session.add_device(*target::preset("fig15"));
  session.add_device(*target::preset("stratix-v-gsd8"));

  auto job_on = [&](const std::string& device) {
    auto job = Registry::instance().make_job("sor", 8);
    EXPECT_TRUE(job.ok());
    dse::Job out = std::move(job).take();
    out.device = device;
    return out;
  };

  dse::Campaign campaign;
  campaign.jobs.push_back(job_on("fig15-profile"));
  campaign.jobs.push_back(job_on("stratix-v-gsd8"));   // same sizes, new device
  campaign.jobs.push_back(job_on("fig15-profile"));    // repeat size, warm
  campaign.jobs.push_back(job_on("stratix-v-gsd8"));   // repeat size, warm

  const dse::CampaignResult result = session.run(campaign);
  ASSERT_EQ(result.jobs.size(), 4u);
  const auto& first_a = result.jobs[0].result.cache_stats;
  const auto& first_b = result.jobs[1].result.cache_stats;
  const auto& repeat_a = result.jobs[2].result.cache_stats;
  const auto& repeat_b = result.jobs[3].result.cache_stats;

  // Device isolation: the second device's first job must not cross-hit
  // entries cached for the first device.
  EXPECT_EQ(first_a.hits, 0u);
  EXPECT_EQ(first_b.hits, 0u);
  // Shared cache: both devices' repeat sizes answer at the variant-key
  // level — one cache serves the whole campaign.
  EXPECT_GT(repeat_a.variant_hits, 0u);
  EXPECT_GT(repeat_b.variant_hits, 0u);
  EXPECT_EQ(repeat_a.variant_hits, result.jobs[2].result.entries.size());
  EXPECT_EQ(repeat_b.variant_hits, result.jobs[3].result.entries.size());
  EXPECT_EQ(repeat_a.misses, 0u);
  EXPECT_EQ(repeat_b.misses, 0u);

  // The summed stats match the per-job stats.
  EXPECT_EQ(result.cache_stats.misses, first_a.misses + first_b.misses);
  EXPECT_EQ(result.cache_stats.variant_hits,
            repeat_a.variant_hits + repeat_b.variant_hits);

  // Per-job sweeps are byte-identical across the warm/cold boundary.
  EXPECT_EQ(dse::format_sweep(result.jobs[2].result),
            dse::format_sweep(result.jobs[0].result));
  EXPECT_EQ(dse::format_sweep(result.jobs[3].result),
            dse::format_sweep(result.jobs[1].result));
}

bool dominates(const dse::ParetoPoint& a, const dse::ParetoPoint& b) {
  const bool no_worse =
      a.ekit >= b.ekit && a.util_max <= b.util_max && a.bw_share <= b.bw_share;
  const bool better =
      a.ekit > b.ekit || a.util_max < b.util_max || a.bw_share < b.bw_share;
  return no_worse && better;
}

TEST(Campaign, MergedParetoIsMutuallyNonDominatedAcrossJobs) {
  dse::Session session;
  session.add_device(*target::preset("fig15"));
  session.add_device(*target::preset("stratix-v-gsd8"));

  dse::Campaign campaign;
  for (const auto& c : kCases) {
    for (const auto& device : session.device_names()) {
      auto job = Registry::instance().make_job(c.workload, c.nd);
      ASSERT_TRUE(job.ok());
      dse::Job j = std::move(job).take();
      j.device = device;
      campaign.jobs.push_back(std::move(j));
    }
  }
  const dse::CampaignResult result = session.run(campaign);
  ASSERT_FALSE(result.pareto.empty());

  // Every merged point references a valid entry of its job.
  for (const auto& p : result.pareto) {
    EXPECT_LT(p.job, result.jobs.size());
    EXPECT_TRUE(result.entry(p).report.valid);
  }
  // Mutual non-domination across the whole merged set.
  for (const auto& a : result.pareto) {
    for (const auto& b : result.pareto) {
      if (&a == &b) continue;
      EXPECT_FALSE(dominates(a.point, b.point))
          << "job " << a.job << " dominates job " << b.job;
    }
  }
  // Completeness: no per-job frontier point outside the merged set is
  // non-dominated against it (the merged view loses nothing).
  for (std::size_t j = 0; j < result.jobs.size(); ++j) {
    for (const auto& p : result.jobs[j].result.pareto) {
      bool in_merged = false;
      for (const auto& m : result.pareto) {
        in_merged |= m.job == j && m.point.index == p.index;
      }
      if (in_merged) continue;
      bool dominated = false;
      for (const auto& m : result.pareto) dominated |= dominates(m.point, p);
      EXPECT_TRUE(dominated) << "job " << j << " entry " << p.index
                             << " missing from the merged frontier";
    }
  }

  // The renderers cover every merged point, one row each.
  const std::string table = dse::format_campaign_pareto(result);
  EXPECT_EQ(std::count(table.begin(), table.end(), '\n'),
            static_cast<std::ptrdiff_t>(result.pareto.size()) + 2);
  const std::string comparison = dse::format_campaign(result);
  EXPECT_EQ(std::count(comparison.begin(), comparison.end(), '\n'),
            static_cast<std::ptrdiff_t>(result.jobs.size()) + 2);
}

// --------------------------------------------------------------------------
// Registry
// --------------------------------------------------------------------------

TEST(Registry, EnumeratesBuiltinsInRegistrationOrder) {
  auto& reg = Registry::instance();
  ASSERT_GE(reg.size(), 3u);
  const auto names = reg.names();
  EXPECT_EQ(names[0], "sor");
  EXPECT_EQ(names[1], "hotspot");
  EXPECT_EQ(names[2], "lavamd");
  const std::string joined = reg.names_joined();
  EXPECT_EQ(joined.find("sor|hotspot|lavamd"), 0u);

  for (const char* name : {"sor", "hotspot", "lavamd"}) {
    const kernels::WorkloadInfo* info = reg.find(name);
    ASSERT_NE(info, nullptr) << name;
    EXPECT_FALSE(info->summary.empty());
    EXPECT_FALSE(info->nd_help.empty());
    EXPECT_GT(info->default_nd, 0u);
  }
  EXPECT_EQ(reg.find("does-not-exist"), nullptr);
}

TEST(Registry, MakeJobResolvesNdRangeAndLabels) {
  auto& reg = Registry::instance();
  auto sor = reg.make_job("sor", 8);
  ASSERT_TRUE(sor.ok());
  EXPECT_EQ(sor.value().workload, "sor");
  EXPECT_EQ(sor.value().nd, 8u);
  EXPECT_EQ(sor.value().n, 512u);
  ASSERT_NE(sor.value().lower, nullptr);
  EXPECT_TRUE(sor.value().lower->key(frontend::baseline_variant(512)));

  auto hotspot = reg.make_job("hotspot", 12);
  ASSERT_TRUE(hotspot.ok());
  EXPECT_EQ(hotspot.value().n, 144u);
  auto lavamd = reg.make_job("lavamd", 64);
  ASSERT_TRUE(lavamd.ok());
  EXPECT_EQ(lavamd.value().n, 64u);
}

TEST(Registry, MakeJobRejectsBadInput) {
  auto& reg = Registry::instance();
  // Unknown workload: the structured error names what IS registered.
  auto unknown = reg.make_job("quicksort", 8);
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.error_message().find("sor|hotspot|lavamd"),
            std::string::npos);
  // nd == 0 is rejected for every workload.
  for (const char* name : {"sor", "hotspot", "lavamd"}) {
    EXPECT_FALSE(reg.make_job(name, 0).ok()) << name;
  }
  // The SOR NDRange overflow check (nd^3 > uint64) — previously ad hoc in
  // the tool, now a structured registry error.
  EXPECT_TRUE(reg.make_job("sor", 2642245).ok());
  auto overflow = reg.make_job("sor", 2642246);
  ASSERT_FALSE(overflow.ok());
  EXPECT_NE(overflow.error_message().find("overflow"), std::string::npos);
  // hotspot/lavamd NDRanges cannot overflow from a 32-bit nd.
  EXPECT_TRUE(reg.make_job("hotspot", 0xffffffffu).ok());
  EXPECT_TRUE(reg.make_job("lavamd", 0xffffffffu).ok());
}

TEST(Registry, ReferenceChecksumsAreDeterministicAndKernelSpecific) {
  auto& reg = Registry::instance();
  for (const char* name : {"sor", "hotspot", "lavamd"}) {
    const kernels::WorkloadInfo* info = reg.find(name);
    ASSERT_NE(info, nullptr);
    ASSERT_TRUE(static_cast<bool>(info->reference_checksum)) << name;
    const double a = info->reference_checksum(6);
    const double b = info->reference_checksum(6);
    EXPECT_TRUE(std::isfinite(a)) << name;
    EXPECT_EQ(a, b) << name;  // deterministic
    EXPECT_NE(info->reference_checksum(8), a) << name;  // size-sensitive
  }
  // The hook runs the same reference the kernel library exposes.
  kernels::SorConfig cfg;
  cfg.im = cfg.jm = cfg.km = 6;
  cfg.nki = 10;
  const auto ref = kernels::sor_reference(cfg, kernels::sor_inputs(cfg));
  double expected = ref.sor_err_acc;
  for (const double v : ref.p_new) expected += v;
  EXPECT_EQ(reg.find("sor")->reference_checksum(6), expected);
}

TEST(Registry, SelfRegistrationAddsACustomWorkload) {
  // The WorkloadRegistrar path user kernels take (here at test scope; in
  // a real workload TU it is a namespace-scope static).
  static const kernels::WorkloadRegistrar registrar{kernels::WorkloadInfo{
      "test-sor-mini",
      "registered by test_session",
      "edge of the nd^3 grid",
      4,
      [](std::uint32_t nd) -> tytra::Result<std::uint64_t> {
        if (nd == 0) return tytra::make_error("test-sor-mini: nd == 0");
        return static_cast<std::uint64_t>(nd) * nd * nd;
      },
      [](std::uint32_t nd) {
        kernels::SorConfig cfg;
        cfg.im = cfg.jm = cfg.km = nd;
        cfg.nki = 2;
        return kernels::sor_lowerer(cfg);
      },
      nullptr,
      {}}};

  auto& reg = Registry::instance();
  ASSERT_NE(reg.find("test-sor-mini"), nullptr);
  // Duplicate registration is rejected.
  EXPECT_THROW(reg.add(kernels::WorkloadInfo{
                   "test-sor-mini", "", "", 1,
                   [](std::uint32_t) -> tytra::Result<std::uint64_t> {
                     return std::uint64_t{1};
                   },
                   [](std::uint32_t) {
                     return kernels::sor_lowerer(kernels::SorConfig{});
                   },
                   nullptr,
                   {}}),
               std::invalid_argument);

  // A registered workload is immediately explorable through a session.
  auto job = reg.make_job("test-sor-mini", 4);
  ASSERT_TRUE(job.ok());
  dse::Job j = std::move(job).take();
  j.db = &preset_db("fig15");
  dse::Session session;
  const auto result = session.explore(j);
  EXPECT_FALSE(result.entries.empty());
}

// --------------------------------------------------------------------------
// API-boundary validation
// --------------------------------------------------------------------------

TEST(SessionValidation, RejectsBadOptionsAndJobs) {
  // SessionOptions: a zero lane cap is a structured error, not an empty
  // sweep.
  dse::SessionOptions zero_lanes;
  zero_lanes.max_lanes = 0;
  EXPECT_THROW(dse::Session{zero_lanes}, std::invalid_argument);

  const auto& db = preset_db("fig15");
  dse::Session session;

  dse::Job no_lowerer;
  no_lowerer.n = 512;
  no_lowerer.db = &db;
  EXPECT_THROW(session.explore(no_lowerer), std::invalid_argument);

  dse::Job zero_n = registry_job("sor", 8, db);
  zero_n.n = 0;
  EXPECT_THROW(session.explore(zero_n), std::invalid_argument);

  // No device anywhere: job names none, table is empty.
  dse::Job no_device = registry_job("sor", 8, db);
  no_device.db = nullptr;
  EXPECT_THROW(session.explore(no_device), std::invalid_argument);

  // Unknown device name: the error lists the table.
  session.add_device(*target::preset("fig15"));
  dse::Job bad_device = registry_job("sor", 8, db);
  bad_device.db = nullptr;
  bad_device.device = "nonexistent-board";
  try {
    session.explore(bad_device);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("fig15-profile"), std::string::npos);
  }

  // Duplicate device names are rejected.
  EXPECT_THROW(session.add_device(*target::preset("fig15")),
               std::invalid_argument);

  // An empty device name selects the default (first added).
  dse::Job default_device = registry_job("sor", 8, db);
  default_device.db = nullptr;
  EXPECT_FALSE(session.explore(default_device).entries.empty());
}

// --------------------------------------------------------------------------
// Tuner lane cap + "no valid best" encoding
// --------------------------------------------------------------------------

std::uint32_t max_lanes_visited(const dse::TuneResult& r) {
  std::uint32_t max = 0;
  for (const auto& s : r.trajectory) max = std::max(max, s.report.params.knl);
  return max;
}

TEST(Tune, JobMaxLanesBoundsTheTrajectory) {
  // sor nd=24 on stratix-v walks 1..16 lanes before its bandwidth wall;
  // a tighter per-job cap must stop the walk with a lane-cap verdict
  // instead of being ignored (the walk used a hard-coded 1024 guard).
  const auto& db = preset_db("stratix-v-gsd8");
  dse::Session session;
  dse::Job job = registry_job("sor", 24, db);

  job.max_lanes = 4;
  const dse::TuneResult capped = session.tune(job);
  EXPECT_LE(max_lanes_visited(capped), 4u);
  EXPECT_NE(capped.verdict.find("lane cap reached"), std::string::npos)
      << capped.verdict;

  // A cap the walk never reaches changes nothing.
  job.max_lanes = 1024;
  const dse::TuneResult wide = session.tune(job);
  EXPECT_GT(max_lanes_visited(wide), 4u);
  EXPECT_EQ(wide.verdict.find("lane cap"), std::string::npos) << wide.verdict;
}

TEST(Tune, SessionOptionsMaxLanesBoundsTheTrajectory) {
  // A job without its own cap inherits the session-wide one.
  const auto& db = preset_db("stratix-v-gsd8");
  dse::SessionOptions so;
  so.max_lanes = 3;
  dse::Session session(so);
  dse::Job job = registry_job("sor", 24, db);
  ASSERT_EQ(job.max_lanes, 0u);
  const dse::TuneResult result = session.tune(job);
  EXPECT_LE(max_lanes_visited(result), 3u);
  EXPECT_NE(result.verdict.find("lane cap reached"), std::string::npos);
}

TEST(Tune, NoValidStepMeansNoBest) {
  // A device too small for even one lane: the first (and only) step is
  // invalid. `best` used to default to 0, presenting a design that does
  // not fit as "best" in both renderings; now there simply is none.
  auto tiny = *target::preset("fig15");
  tiny.resources.aluts = 10;
  tiny.resources.regs = 10;
  dse::Session session;
  session.add_device(tiny);
  dse::Job job = registry_job("sor", 8, preset_db("fig15"));
  job.db = nullptr;
  job.device = tiny.name;

  const dse::TuneResult result = session.tune(job);
  ASSERT_FALSE(result.trajectory.empty());
  EXPECT_FALSE(result.trajectory.front().report.valid);
  EXPECT_FALSE(result.best.has_value());

  const std::string text = dse::format_tune(result);
  EXPECT_EQ(text.find("best:"), std::string::npos) << text;
  const std::string json = dse::format_tune_json(result);
  EXPECT_NE(json.find("\"best\": null"), std::string::npos) << json;

  // A trajectory with a valid step still reports it, in both renderings.
  dse::Job ok_job = registry_job("sor", 8, preset_db("fig15"));
  const dse::TuneResult ok = session.tune(ok_job);
  ASSERT_TRUE(ok.best.has_value());
  EXPECT_NE(dse::format_tune(ok).find("best: step"), std::string::npos);
  EXPECT_NE(dse::format_tune_json(ok).find("\"best\": 0"), std::string::npos);
}

// --------------------------------------------------------------------------
// Skyline robustness
// --------------------------------------------------------------------------

TEST(Skyline, NonFiniteCandidatesNeitherCrashNorEnterTheFrontier) {
  // A NaN objective used to make the sort comparator violate strict weak
  // ordering (undefined behavior) and could wedge the staircase. Such
  // candidates must be dropped: never kept, never dominating.
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<dse::ParetoPoint> candidates = {
      {0, 100.0, 30.0, 0.5},   // cheaper than 3: a genuine trade-off
      {1, nan, 10.0, 0.1},     // NaN EKIT: dropped
      {2, 200.0, inf, 0.0},    // inf util: dropped
      {3, 150.0, 40.0, 0.2},   // kept
      {4, 150.0, 40.0, nan},   // NaN bw: dropped (even tied on the rest)
      {5, 90.0, 60.0, 0.4},    // dominated by 3
      {6, 100.0, 30.0, 0.5},   // exact duplicate of 0
  };
  const std::vector<bool> keep = dse::detail::skyline_keep(candidates);
  ASSERT_EQ(keep.size(), candidates.size());
  EXPECT_FALSE(keep[1]);
  EXPECT_FALSE(keep[2]);
  EXPECT_FALSE(keep[4]);
  EXPECT_TRUE(keep[3]);
  EXPECT_TRUE(keep[0]);  // nothing finite dominates it
  EXPECT_FALSE(keep[5]);
  EXPECT_TRUE(keep[6]);  // duplicates are mutually non-dominating: both stay
}

TEST(Skyline, AllNonFiniteYieldsEmptyFrontierWithoutCrashing) {
  const double nan = std::nan("");
  std::vector<dse::ParetoPoint> candidates;
  for (std::size_t i = 0; i < 64; ++i) {
    candidates.push_back({i, nan, nan, nan});
  }
  const std::vector<bool> keep = dse::detail::skyline_keep(candidates);
  for (const bool k : keep) EXPECT_FALSE(k);
}

}  // namespace
