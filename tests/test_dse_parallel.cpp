// Tests for the parallel batched DSE engine: deterministic merge (the
// parallel sweep must be byte-identical to the sequential one), the
// memoizing cost-model cache (including multi-threaded hammering of its
// sharded maps, with clear() and load() racing the lookups), a campaign's
// one lowering per design across devices, and the Pareto-frontier
// archive.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <regex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "tytra/dse/cache.hpp"
#include "tytra/dse/session.hpp"
#include "tytra/kernels/kernels.hpp"
#include "tytra/kernels/lowerers.hpp"
#include "tytra/support/binio.hpp"
#include "tytra/support/rng.hpp"

namespace {

using namespace tytra;
using dse::CostCache;
using dse::DseResult;

constexpr std::uint32_t kDim = 24;  // 13824 work-items (the Fig. 15 grid)

dse::LowerFn sor_lower() {
  return [](const frontend::Variant& v) {
    kernels::SorConfig cfg;
    cfg.im = cfg.jm = cfg.km = kDim;
    cfg.lanes = v.lanes();
    cfg.nki = 10;
    return kernels::make_sor(cfg);
  };
}

dse::LowerFn hotspot_lower() {
  return [](const frontend::Variant& v) {
    kernels::HotspotConfig cfg;
    cfg.rows = cfg.cols = kDim;
    cfg.lanes = v.lanes();
    return kernels::make_hotspot(cfg);
  };
}

dse::LowerFn lavamd_lower() {
  return [](const frontend::Variant& v) {
    kernels::LavamdConfig cfg;
    cfg.particles = 1024;
    cfg.lanes = v.lanes();
    return kernels::make_lavamd(cfg);
  };
}

const cost::DeviceCostDb& fig15_db() {
  static const auto db = cost::DeviceCostDb::calibrate(target::fig15_profile());
  return db;
}

const cost::DeviceCostDb& sv_db() {
  static const auto db = cost::DeviceCostDb::calibrate(target::stratix_v_gsd8());
  return db;
}

dse::Job fn_job(std::uint64_t n, dse::LowerFn lower,
                const cost::DeviceCostDb& db, std::uint32_t max_lanes = 16) {
  dse::Job job;
  job.n = n;
  job.lower = std::make_shared<dse::FnLowerer>(std::move(lower));
  job.db = &db;
  job.max_lanes = max_lanes;
  return job;
}

dse::Job sor_job(const cost::DeviceCostDb& db) {
  return fn_job(kDim * kDim * kDim, sor_lower(), db);
}

/// sor_job through a keyed lowerer: the same designs, memoized by
/// variant key.
dse::Job keyed_sor_job(const cost::DeviceCostDb& db) {
  kernels::SorConfig cfg;
  cfg.im = cfg.jm = cfg.km = kDim;
  cfg.nki = 10;
  dse::Job job = sor_job(db);
  job.lower = std::make_shared<dse::KeyedLowerer>(kernels::sor_lowerer(cfg));
  return job;
}

dse::SessionOptions threads(std::uint32_t n, bool cache = false) {
  dse::SessionOptions so;
  so.num_threads = n;
  so.enable_cache = cache;
  return so;
}

/// One uncached sweep on a fresh session with `n` workers (0 = auto).
DseResult sweep(const dse::Job& job, std::uint32_t n = 0) {
  return dse::Session(threads(n)).explore(job);
}

// --------------------------------------------------------------------------
// Determinism: parallel == sequential, byte for byte
// --------------------------------------------------------------------------

TEST(DseParallel, SorSweepIsByteIdenticalAcrossThreadCounts) {
  const DseResult base = sweep(sor_job(fig15_db()), 1);
  const std::string expected = dse::format_sweep(base);
  for (const std::uint32_t threads : {2u, 3u, 8u}) {
    const DseResult r = sweep(sor_job(fig15_db()), threads);
    EXPECT_EQ(dse::format_sweep(r), expected) << "threads=" << threads;
    EXPECT_EQ(r.best, base.best) << "threads=" << threads;
    EXPECT_EQ(dse::format_pareto(r), dse::format_pareto(base))
        << "threads=" << threads;
  }
}

TEST(DseParallel, HotspotAndLavamdSweepsAreByteIdentical) {
  struct Case {
    const char* name;
    std::uint64_t n;
    dse::LowerFn lower;
  };
  const Case cases[] = {
      {"hotspot", kDim * kDim, hotspot_lower()},
      {"lavamd", 1024, lavamd_lower()},
  };
  for (const auto& c : cases) {
    const DseResult a = sweep(fn_job(c.n, c.lower, sv_db()), 1);
    const DseResult b = sweep(fn_job(c.n, c.lower, sv_db()), 4);
    EXPECT_EQ(dse::format_sweep(b), dse::format_sweep(a)) << c.name;
  }
}

TEST(DseParallel, MoreThreadsThanVariantsIsSafe) {
  const DseResult r = sweep(sor_job(fig15_db()), 64);
  EXPECT_EQ(r.entries.size(), 9u);
  ASSERT_TRUE(r.best.has_value());
}

TEST(DseParallel, LowerExceptionPropagatesFromWorkers) {
  const dse::LowerFn bad = [](const frontend::Variant&) -> ir::Module {
    throw std::runtime_error("lowering failed");
  };
  EXPECT_THROW(sweep(fn_job(kDim * kDim * kDim, bad, fig15_db()), 4),
               std::runtime_error);
}

// --------------------------------------------------------------------------
// Cost-model cache
// --------------------------------------------------------------------------

TEST(DseCache, ColdSweepMissesThenWarmSweepHits) {
  dse::Session session(threads(2, /*cache=*/true));
  const DseResult cold = session.explore(keyed_sor_job(fig15_db()));
  EXPECT_EQ(cold.cache_stats.misses, cold.entries.size());
  EXPECT_EQ(cold.cache_stats.hits, 0u);
  EXPECT_EQ(session.cache()->size(), cold.entries.size());

  const DseResult warm = session.explore(keyed_sor_job(fig15_db()));
  EXPECT_EQ(warm.cache_stats.hits, warm.entries.size());
  EXPECT_EQ(warm.cache_stats.misses, 0u);
  EXPECT_EQ(dse::format_sweep(warm), dse::format_sweep(cold));
}

TEST(DseCache, CachedSweepMatchesUncachedByteForByte) {
  dse::Session cached(threads(1, /*cache=*/true));
  const auto a = sweep(sor_job(fig15_db()), 1);
  cached.explore(keyed_sor_job(fig15_db()));  // fill
  const auto b = cached.explore(keyed_sor_job(fig15_db()));
  EXPECT_EQ(dse::format_sweep(b), dse::format_sweep(a));
  EXPECT_EQ(dse::format_pareto(b), dse::format_pareto(a));
}

TEST(DseCache, DistinguishesDevices) {
  // The same variants costed against different calibrations must not
  // cross-hit: the device identity is part of the key.
  dse::Session session;
  const auto on_fig15 = session.explore(keyed_sor_job(fig15_db()));
  const auto on_sv = session.explore(keyed_sor_job(sv_db()));
  const CostCache& cache = *session.cache();
  EXPECT_EQ(on_fig15.cache_stats.misses, on_fig15.entries.size());
  EXPECT_EQ(on_sv.cache_stats.misses, on_sv.entries.size());
  EXPECT_EQ(on_sv.cache_stats.hits, 0u);
  EXPECT_EQ(cache.size(), on_fig15.entries.size() + on_sv.entries.size());
}

TEST(DseCache, TunerRidesSweepCache) {
  // The feedback path: a tuner walk after a full sweep re-visits only
  // variants the sweep already costed.
  dse::Session session;
  session.explore(keyed_sor_job(fig15_db()));
  const auto before = session.cache()->stats();
  const auto tuned = session.tune(keyed_sor_job(fig15_db()));
  const auto after = session.cache()->stats();
  EXPECT_GE(tuned.trajectory.size(), 2u);
  EXPECT_EQ(after.misses, before.misses);  // nothing new to evaluate
  EXPECT_EQ(after.hits - before.hits, tuned.trajectory.size());
}

TEST(DseCache, ClearResetsEverything) {
  dse::Session session;
  session.explore(keyed_sor_job(fig15_db()));
  CostCache& cache = *session.cache();
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().lookups(), 0u);
  const auto r = session.explore(keyed_sor_job(fig15_db()));
  EXPECT_EQ(r.cache_stats.misses, r.entries.size());
}

// --------------------------------------------------------------------------
// One lowering per design across devices (campaign wave-1 groups)
// --------------------------------------------------------------------------

const cost::DeviceCostDb& v7_db() {
  static const auto db = cost::DeviceCostDb::calibrate(target::virtex7_690t());
  return db;
}

/// Keyed SOR that counts its lowerings and throws for one lane count
/// (0: never).
class CountingLowerer final : public dse::Lowerer {
 public:
  explicit CountingLowerer(std::uint32_t nki, std::uint32_t fail_lanes = 0)
      : inner_(kernels::sor_lowerer([nki] {
          kernels::SorConfig cfg;
          cfg.im = cfg.jm = cfg.km = kDim;
          cfg.nki = nki;
          return cfg;
        }())),
        fail_lanes_(fail_lanes) {}

  [[nodiscard]] std::optional<dse::VariantKey> key(
      const frontend::Variant& v) const override {
    return inner_.key(v);
  }
  [[nodiscard]] ir::Module lower(const frontend::Variant& v,
                                 ir::BuildArena* = nullptr) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    if (v.lanes() == fail_lanes_) {
      throw std::runtime_error("cannot lower " + std::to_string(v.lanes()) +
                               " lanes");
    }
    return inner_.lower(v);
  }
  [[nodiscard]] std::uint64_t calls() const {
    return calls_.load(std::memory_order_relaxed);
  }

 private:
  dse::KeyedLowerer inner_;
  std::uint32_t fail_lanes_;
  mutable std::atomic<std::uint64_t> calls_{0};
};

dse::Job counted_job(std::shared_ptr<const dse::Lowerer> lower,
                     const cost::DeviceCostDb& db) {
  dse::Job job;
  job.workload = "sor";
  job.n = kDim * kDim * kDim;
  job.lower = std::move(lower);
  job.db = &db;
  job.max_lanes = 16;
  return job;
}

/// One workload on the three presets.
dse::Campaign three_device_campaign(
    const std::shared_ptr<const dse::Lowerer>& lower) {
  dse::Campaign c;
  for (const auto* db : {&fig15_db(), &sv_db(), &v7_db()}) {
    c.jobs.push_back(counted_job(lower, *db));
  }
  return c;
}

std::string scrub_seconds(const std::string& json) {
  static const std::regex seconds_re(
      "(\"(?:explore_)?seconds\": )[-+0-9.eE]+");
  return std::regex_replace(json, seconds_re, "$1#");
}

/// Everything a campaign renders, wall times aside.
std::string rendered(const dse::CampaignResult& r) {
  return dse::format_campaign(r) + dse::format_campaign_pareto(r) +
         scrub_seconds(dse::format_campaign_json(r));
}

std::string stats_of(const dse::CacheStats& s) {
  return std::to_string(s.hits) + "/" + std::to_string(s.misses) + "/" +
         std::to_string(s.variant_hits);
}

/// The campaign run one job at a time on a cached 1-thread session, merged
/// like a campaign.
dse::CampaignResult job_by_job(const dse::Campaign& c) {
  dse::Session session(threads(1, /*cache=*/true));
  std::vector<dse::CampaignJobResult> jobs;
  for (const dse::Job& job : c.jobs) {
    dse::CampaignJobResult jr;
    jr.job = job;
    jr.result = session.explore(job);
    jobs.push_back(std::move(jr));
  }
  return dse::merge_campaign(std::move(jobs));
}

TEST(DseGroupedLowering, OneLoweringPerDesignAtEveryThreadCount) {
  const dse::Campaign reference_campaign =
      three_device_campaign(std::make_shared<CountingLowerer>(10));
  const dse::CampaignResult reference = job_by_job(reference_campaign);
  const std::string expected = rendered(reference);

  for (const std::uint32_t n : {1u, 2u, 8u}) {
    const auto lower = std::make_shared<CountingLowerer>(10);
    dse::Session session(threads(n, /*cache=*/true));
    const dse::CampaignResult r = session.run(three_device_campaign(lower));
    ASSERT_EQ(r.jobs.size(), 3u);
    const std::size_t variants = r.jobs[0].result.entries.size();
    EXPECT_EQ(variants, 9u);
    // Each design lowers once for its three devices, and each device
    // still misses once: the reports are per device.
    EXPECT_EQ(lower->calls(), variants) << "threads=" << n;
    EXPECT_EQ(session.cache()->stats().misses, 3 * variants);
    EXPECT_EQ(rendered(r), expected) << "threads=" << n;
    for (std::size_t j = 0; j < r.jobs.size(); ++j) {
      EXPECT_EQ(stats_of(r.jobs[j].result.cache_stats),
                stats_of(reference.jobs[j].result.cache_stats))
          << "threads=" << n << " job " << j;
      EXPECT_EQ(dse::format_sweep(r.jobs[j].result),
                dse::format_sweep(reference.jobs[j].result))
          << "threads=" << n << " job " << j;
    }
  }
}

TEST(DseGroupedLowering, ThrowingLoweringFailsEachSharingJobAlone) {
  // Three jobs share a lowerer that cannot lower 4 lanes; two more jobs
  // lower another design (nki 5) on two devices and must not notice.
  const auto healthy_campaign = [](std::uint32_t fail_lanes,
                                   std::shared_ptr<CountingLowerer>* failing) {
    *failing = std::make_shared<CountingLowerer>(10, fail_lanes);
    dse::Campaign c = three_device_campaign(*failing);
    const auto other = std::make_shared<CountingLowerer>(5);
    c.jobs.push_back(counted_job(other, fig15_db()));
    c.jobs.push_back(counted_job(other, sv_db()));
    return c;
  };
  std::shared_ptr<CountingLowerer> unused;
  dse::Session clean_session(threads(1, /*cache=*/true));
  const dse::CampaignResult clean =
      clean_session.run(healthy_campaign(0, &unused));

  for (const std::uint32_t n : {1u, 2u, 8u}) {
    std::shared_ptr<CountingLowerer> failing;
    dse::Session session(threads(n, /*cache=*/true));
    const dse::CampaignResult r = session.run(healthy_campaign(4, &failing));
    ASSERT_EQ(r.jobs.size(), 5u);
    for (std::size_t j = 0; j < 3; ++j) {
      const dse::JobStatus& st = r.jobs[j].status;
      EXPECT_EQ(st.state, dse::JobState::Failed)
          << "threads=" << n << " job " << j;
      EXPECT_EQ(st.error, "cannot lower 4 lanes")
          << "threads=" << n << " job " << j;
      EXPECT_EQ(st.faults, 1u) << "threads=" << n << " job " << j;
      EXPECT_TRUE(r.jobs[j].result.entries.empty());
    }
    for (std::size_t j = 3; j < 5; ++j) {
      ASSERT_TRUE(r.jobs[j].status.ok()) << "threads=" << n << " job " << j;
      EXPECT_EQ(dse::format_sweep(r.jobs[j].result),
                dse::format_sweep(clean.jobs[j].result))
          << "threads=" << n << " job " << j;
      EXPECT_EQ(stats_of(r.jobs[j].result.cache_stats),
                stats_of(clean.jobs[j].result.cache_stats))
          << "threads=" << n << " job " << j;
    }
  }
}

TEST(DseGroupedLowering, EqualFingerprintDatabasesKeepSerialAccounting) {
  // Two databases calibrated from one device: distinct objects, equal
  // fingerprints, so the second job's lookups hit the first job's
  // entries — at every thread count, as they do job by job.
  const auto db_a = cost::DeviceCostDb::calibrate(target::fig15_profile());
  const auto db_b = cost::DeviceCostDb::calibrate(target::fig15_profile());
  ASSERT_NE(&db_a, &db_b);
  ASSERT_EQ(db_a.fingerprint(), db_b.fingerprint());
  const auto campaign_of = [&](const std::shared_ptr<const dse::Lowerer>& l) {
    dse::Campaign c;
    c.jobs.push_back(counted_job(l, db_a));
    c.jobs.push_back(counted_job(l, db_b));
    return c;
  };
  const dse::CampaignResult reference =
      job_by_job(campaign_of(std::make_shared<CountingLowerer>(10)));
  const std::size_t variants = reference.jobs[0].result.entries.size();
  ASSERT_EQ(reference.jobs[0].result.cache_stats.misses, variants);
  ASSERT_EQ(reference.jobs[1].result.cache_stats.hits, variants);

  for (const std::uint32_t n : {1u, 2u, 8u}) {
    const auto lower = std::make_shared<CountingLowerer>(10);
    dse::Session session(threads(n, /*cache=*/true));
    const dse::CampaignResult r = session.run(campaign_of(lower));
    EXPECT_EQ(lower->calls(), variants) << "threads=" << n;
    for (std::size_t j = 0; j < 2; ++j) {
      EXPECT_EQ(stats_of(r.jobs[j].result.cache_stats),
                stats_of(reference.jobs[j].result.cache_stats))
          << "threads=" << n << " job " << j;
    }
    EXPECT_EQ(rendered(r), rendered(reference)) << "threads=" << n;
  }
}

// --------------------------------------------------------------------------
// Pareto archive
// --------------------------------------------------------------------------

bool dominates(const dse::ParetoPoint& a, const dse::ParetoPoint& b) {
  const bool no_worse =
      a.ekit >= b.ekit && a.util_max <= b.util_max && a.bw_share <= b.bw_share;
  const bool better =
      a.ekit > b.ekit || a.util_max < b.util_max || a.bw_share < b.bw_share;
  return no_worse && better;
}

TEST(DsePareto, FrontierIsValidAndMutuallyNonDominated) {
  const DseResult r = sweep(sor_job(fig15_db()));
  ASSERT_FALSE(r.pareto.empty());
  for (const auto& p : r.pareto) {
    EXPECT_TRUE(r.entries[p.index].report.valid);
    EXPECT_DOUBLE_EQ(p.ekit, r.entries[p.index].report.throughput.ekit);
  }
  for (const auto& a : r.pareto) {
    for (const auto& b : r.pareto) {
      if (a.index == b.index) continue;
      EXPECT_FALSE(dominates(a, b))
          << a.index << " dominates " << b.index;
    }
  }
}

TEST(DsePareto, FrontierCoversBothEndsOfTheTradeoff) {
  const DseResult r = sweep(sor_job(fig15_db()));
  ASSERT_TRUE(r.best.has_value());
  // The highest-EKIT design is on the frontier...
  bool best_on_frontier = false;
  for (const auto& p : r.pareto) best_on_frontier |= p.index == *r.best;
  EXPECT_TRUE(best_on_frontier);
  // ...and so is the cheapest valid design (minimum binding utilization):
  // nothing can dominate the entry that minimizes the resource objective.
  std::size_t cheapest = 0;
  double cheapest_util = 1e300;
  for (std::size_t i = 0; i < r.entries.size(); ++i) {
    if (!r.entries[i].report.valid) continue;
    const double u = r.entries[i].report.resources.util.max();
    if (u < cheapest_util) {
      cheapest_util = u;
      cheapest = i;
    }
  }
  bool cheapest_on_frontier = false;
  for (const auto& p : r.pareto) cheapest_on_frontier |= p.index == cheapest;
  EXPECT_TRUE(cheapest_on_frontier);
}

TEST(DsePareto, SkylineMatchesBruteForceFrontier) {
  // The sort-based skyline must select exactly the set the O(n^2)
  // all-pairs definition selects, across kernels and sweep widths.
  struct Case {
    std::uint64_t n;
    dse::LowerFn lower;
    std::uint32_t max_lanes;
  };
  const Case cases[] = {
      {kDim * kDim * kDim, sor_lower(), 16},
      {kDim * kDim * kDim, sor_lower(), 48},
      {kDim * kDim, hotspot_lower(), 24},
      {1024, lavamd_lower(), 16},
  };
  for (const auto& c : cases) {
    const DseResult r = sweep(fn_job(c.n, c.lower, fig15_db(), c.max_lanes));

    // Brute force over the valid entries.
    std::vector<dse::ParetoPoint> candidates;
    for (std::size_t i = 0; i < r.entries.size(); ++i) {
      const auto& rep = r.entries[i].report;
      if (!rep.valid) continue;
      const double bw_share =
          rep.throughput.seconds_per_instance > 0
              ? rep.throughput.t_mem_stream /
                    rep.throughput.seconds_per_instance
              : 0.0;
      candidates.push_back(dse::ParetoPoint{i, rep.throughput.ekit,
                                            rep.resources.util.max(),
                                            bw_share});
    }
    std::vector<std::size_t> expected;
    for (const auto& p : candidates) {
      bool dominated = false;
      for (const auto& q : candidates) dominated |= dominates(q, p);
      if (!dominated) expected.push_back(p.index);
    }
    std::vector<std::size_t> actual;
    for (const auto& p : r.pareto) actual.push_back(p.index);
    EXPECT_EQ(actual, expected) << "max_lanes=" << c.max_lanes;
  }
}

TEST(DsePareto, NoValidEntriesMeansEmptyFrontier) {
  // A device too small for even one lane: every variant is invalid.
  auto tiny = target::fig15_profile();
  tiny.resources.aluts = 10;
  tiny.resources.regs = 10;
  const auto db = cost::DeviceCostDb::calibrate(tiny);
  const DseResult r = sweep(sor_job(db));
  EXPECT_FALSE(r.best.has_value());
  EXPECT_TRUE(r.pareto.empty());
  EXPECT_NE(dse::format_pareto(r).find("0 of"), std::string::npos);
}

// --------------------------------------------------------------------------
// Cache correctness under concurrency
// --------------------------------------------------------------------------

// format_report covers every user-visible field; the trailing
// "estimated in" line carries this run's wall time, so strip it.
std::string stable_report(const cost::CostReport& r) {
  const std::string text = cost::format_report(r);
  return text.substr(0, text.rfind("estimated in"));
}

/// A design set wider than the cache's 16 shards, so every shard holds
/// several entries: lane x nki SOR variants plus two other kernels,
/// against two calibrations, each with its uncached report.
struct Design {
  std::shared_ptr<const dse::KeyedLowerer> lower;
  frontend::Variant variant;
  const cost::DeviceCostDb* db;
  std::string expected;
};

std::vector<Design> hammer_designs() {
  const auto lanes_variant = [](std::uint64_t n, std::uint32_t lanes) {
    const frontend::Variant base = frontend::baseline_variant(n);
    return lanes == 1 ? base
                      : frontend::reshape_to(base, lanes, frontend::ParAnn::Par);
  };
  std::vector<Design> designs;
  for (const std::uint32_t nki : {1u, 5u, 10u, 20u, 40u}) {
    kernels::SorConfig cfg;
    cfg.im = cfg.jm = cfg.km = kDim;
    cfg.nki = nki;
    const auto sor =
        std::make_shared<const dse::KeyedLowerer>(kernels::sor_lowerer(cfg));
    for (const std::uint32_t lanes : {1u, 2u, 3u, 4u, 6u, 8u, 12u, 16u}) {
      designs.push_back({sor, lanes_variant(cfg.ngs(), lanes), &fig15_db(), {}});
    }
  }
  kernels::HotspotConfig hcfg;
  hcfg.rows = hcfg.cols = kDim;
  const auto hotspot =
      std::make_shared<const dse::KeyedLowerer>(kernels::hotspot_lowerer(hcfg));
  kernels::LavamdConfig lcfg;
  lcfg.particles = 1024;
  const auto lavamd =
      std::make_shared<const dse::KeyedLowerer>(kernels::lavamd_lowerer(lcfg));
  for (const std::uint32_t lanes : {1u, 2u, 4u, 8u}) {
    designs.push_back({hotspot, lanes_variant(hcfg.ngs(), lanes), &sv_db(), {}});
    designs.push_back(
        {lavamd, lanes_variant(lcfg.particles, lanes), &fig15_db(), {}});
  }
  for (Design& d : designs) {
    d.expected =
        stable_report(cost::cost_design(d.lower->lower(d.variant), *d.db));
  }
  return designs;
}

TEST(DseCacheHammer, ConcurrentMixedHitsAndMissesReturnExactReports) {
  // 8 workers on one cache: the shards fill mid-hammer while other
  // workers keep hitting them.
  CostCache cache;
  const std::vector<Design> designs = hammer_designs();
  constexpr int kThreads = 8;
  constexpr int kLookups = 2000;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      tytra::SplitMix64 rng(0x9000 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kLookups; ++i) {
        const auto& d = designs[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(designs.size()) - 1))];
        const cost::CostReport got = cache.cost(d.variant, *d.lower, *d.db);
        if (stable_report(got) != d.expected) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : pool) th.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(cache.size(), designs.size());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.lookups(),
            static_cast<std::uint64_t>(kThreads) * kLookups);
  // Every design misses at least once; racing misses may recompute, but
  // never more often than once per thread per design.
  EXPECT_GE(stats.misses, designs.size());
  EXPECT_LE(stats.misses,
            static_cast<std::uint64_t>(kThreads) * designs.size());
}

TEST(DseCacheHammer, ClearAndLoadDuringLookupsReturnExactReports) {
  // clear() and load() lock one shard at a time, so they may race cost():
  // a lookup either finds a whole entry or misses and recomputes it.
  const std::vector<Design> designs = hammer_designs();
  std::string dumped;
  {
    CostCache warm;
    for (const Design& d : designs) (void)warm.cost(d.variant, *d.lower, *d.db);
    binio::Encoder out;
    warm.dump(out);
    dumped = out.take();
  }

  CostCache cache;
  constexpr int kThreads = 8;
  constexpr int kLookups = 1000;
  std::atomic<int> mismatches{0};
  std::atomic<int> failed_loads{0};
  std::atomic<bool> done{false};
  std::thread churn([&] {
    do {
      cache.clear();
      binio::Decoder in(dumped);
      if (!cache.load(in).ok()) failed_loads.fetch_add(1);
    } while (!done.load(std::memory_order_relaxed));
  });
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      tytra::SplitMix64 rng(0xA000 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kLookups; ++i) {
        const auto& d = designs[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(designs.size()) - 1))];
        const cost::CostReport got = cache.cost(d.variant, *d.lower, *d.db);
        if (stable_report(got) != d.expected) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  done.store(true, std::memory_order_relaxed);
  churn.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(failed_loads.load(), 0);
  EXPECT_LE(cache.size(), designs.size());
}

TEST(DseCacheHammer, ConcurrentVariantKeyLookupsReturnExactReports) {
  CostCache cache;
  const dse::KeyedLowerer sor = [] {
    kernels::SorConfig cfg;
    cfg.im = cfg.jm = cfg.km = kDim;
    cfg.nki = 10;
    return kernels::sor_lowerer(cfg);
  }();
  const dse::KeyedLowerer hotspot = [] {
    kernels::HotspotConfig cfg;
    cfg.rows = cfg.cols = kDim;
    return kernels::hotspot_lowerer(cfg);
  }();

  struct Probe {
    const dse::KeyedLowerer* lower;
    frontend::Variant variant;
    std::string expected;
  };
  std::vector<Probe> probes;
  for (const auto& v :
       frontend::enumerate_variants(kDim * kDim * kDim, 16)) {
    probes.push_back({&sor, v, {}});
  }
  for (const auto& v : frontend::enumerate_variants(kDim * kDim, 16)) {
    probes.push_back({&hotspot, v, {}});
  }
  for (Probe& p : probes) {
    p.expected = stable_report(
        cost::cost_design(p.lower->lower(p.variant), fig15_db()));
  }

  constexpr int kThreads = 8;
  constexpr int kLookups = 400;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      tytra::SplitMix64 rng(0x7000 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kLookups; ++i) {
        const auto& p = probes[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(probes.size()) - 1))];
        const cost::CostReport got = cache.cost(p.variant, *p.lower, fig15_db());
        if (stable_report(got) != p.expected) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : pool) th.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(cache.size(), probes.size());
  EXPECT_EQ(cache.variant_size(), probes.size());
  const auto stats = cache.stats();
  // The steady state is hits: everything beyond the initial
  // miss-and-insert races resolves before lowering.
  EXPECT_EQ(stats.variant_hits, stats.hits);
  EXPECT_GE(stats.hits,
            static_cast<std::uint64_t>(kThreads) * kLookups -
                static_cast<std::uint64_t>(kThreads) * probes.size());
}

TEST(DsePareto, FormatListsOneRowPerPoint) {
  const DseResult r = sweep(sor_job(fig15_db()));
  const std::string text = dse::format_pareto(r);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'),
            static_cast<std::ptrdiff_t>(r.pareto.size()) + 2);
  EXPECT_NE(text.find("frontier:"), std::string::npos);
}

}  // namespace
