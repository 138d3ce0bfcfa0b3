// Tests for the two-level cache identity: the pre-lowering variant key
// (dse::KeyedLowerer) must agree with the authoritative post-lowering
// structural digest across every kernel and device preset, the FnLowerer
// shim must behave exactly like the raw std::function path, the divisor
// ladder shared by the tuner and the variant enumerator must match the
// brute-force definition, and the BuildArena must recycle without
// changing a single produced byte.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "tytra/dse/cache.hpp"
#include "tytra/dse/session.hpp"
#include "tytra/ir/printer.hpp"
#include "tytra/kernels/kernels.hpp"
#include "tytra/kernels/lowerers.hpp"

namespace {

using namespace tytra;
using dse::CostCache;
using dse::KeyedLowerer;

constexpr std::uint32_t kDim = 24;

KeyedLowerer sor_keyed() {
  kernels::SorConfig cfg;
  cfg.im = cfg.jm = cfg.km = kDim;
  cfg.nki = 10;
  return kernels::sor_lowerer(cfg);
}

KeyedLowerer hotspot_keyed() {
  kernels::HotspotConfig cfg;
  cfg.rows = cfg.cols = kDim;
  return kernels::hotspot_lowerer(cfg);
}

KeyedLowerer lavamd_keyed() {
  kernels::LavamdConfig cfg;
  cfg.particles = 1024;
  return kernels::lavamd_lowerer(cfg);
}

dse::LowerFn sor_fn() {
  return [](const frontend::Variant& v) {
    kernels::SorConfig cfg;
    cfg.im = cfg.jm = cfg.km = kDim;
    cfg.nki = 10;
    cfg.lanes = v.lanes();
    return kernels::make_sor(cfg);
  };
}

/// A SOR-grid job through `lower`, capped at 1024 lanes so the tuner's
/// walk ends at a wall.
dse::Job sor_job(std::shared_ptr<const dse::Lowerer> lower,
                 const cost::DeviceCostDb& db) {
  dse::Job job;
  job.n = std::uint64_t{kDim} * kDim * kDim;
  job.lower = std::move(lower);
  job.db = &db;
  job.max_lanes = 1024;
  return job;
}

dse::SessionOptions uncached() {
  dse::SessionOptions so;
  so.enable_cache = false;
  return so;
}

std::string stable_report(const cost::CostReport& r) {
  const std::string text = cost::format_report(r);
  return text.substr(0, text.rfind("estimated in"));
}

// --------------------------------------------------------------------------
// Variant keys
// --------------------------------------------------------------------------

TEST(VariantKey, StableAndSensitiveToShapeAnnotationsAndKernel) {
  const KeyedLowerer sor = sor_keyed();
  const std::uint64_t n = std::uint64_t{kDim} * kDim * kDim;
  const auto base = frontend::baseline_variant(n);
  const auto par4 = frontend::reshape_to(base, 4, frontend::ParAnn::Par);
  const auto seq4 = frontend::reshape_to(base, 4, frontend::ParAnn::Seq);

  // Deterministic across calls...
  EXPECT_EQ(sor.key(base), sor.key(frontend::baseline_variant(n)));
  EXPECT_EQ(sor.key(par4),
            sor.key(frontend::reshape_to(base, 4, frontend::ParAnn::Par)));
  // ...different shapes, annotations and kernels key differently.
  EXPECT_NE(sor.key(base), sor.key(par4));
  EXPECT_NE(sor.key(par4), sor.key(seq4));
  EXPECT_NE(sor.key(par4),
            sor.key(frontend::reshape_to(base, 8, frontend::ParAnn::Par)));
  const KeyedLowerer other = hotspot_keyed();
  EXPECT_NE(sor.key(base), other.key(frontend::baseline_variant(n)));
  // A config change (NKI) changes the fingerprint, so keys must differ.
  kernels::SorConfig cfg2;
  cfg2.im = cfg2.jm = cfg2.km = kDim;
  cfg2.nki = 11;
  EXPECT_NE(sor.key(base), kernels::sor_lowerer(cfg2).key(base));
}

TEST(VariantKey, AgreesWithStructuralKeyAcrossKernelsAndPresets) {
  // The core two-level invariant, across all three kernels x all three
  // device presets: a lookup answered by the variant-key table returns
  // exactly the report the structural level (and the raw cost model)
  // computes, and warm sweeps are answered entirely at the variant level.
  struct Case {
    std::uint64_t n;
    KeyedLowerer lower;
  };
  const Case cases[] = {
      {std::uint64_t{kDim} * kDim * kDim, sor_keyed()},
      {std::uint64_t{kDim} * kDim, hotspot_keyed()},
      {1024, lavamd_keyed()},
  };
  const cost::DeviceCostDb dbs[] = {
      cost::DeviceCostDb::calibrate(target::stratix_v_gsd8()),
      cost::DeviceCostDb::calibrate(target::virtex7_690t()),
      cost::DeviceCostDb::calibrate(target::fig15_profile()),
  };
  for (const auto& c : cases) {
    for (const auto& db : dbs) {
      CostCache cache;
      for (const auto& v : frontend::enumerate_variants(c.n, 16)) {
        CostCache::HitLevel level = CostCache::HitLevel::Variant;
        const auto cold = cache.cost(v, c.lower, db, &level);
        EXPECT_EQ(level, CostCache::HitLevel::Miss);
        const auto warm = cache.cost(v, c.lower, db, &level);
        EXPECT_EQ(level, CostCache::HitLevel::Variant);
        const auto direct = cost::cost_design(c.lower.lower(v), db);
        EXPECT_EQ(stable_report(warm), stable_report(cold));
        EXPECT_EQ(stable_report(warm), stable_report(direct));
      }
      EXPECT_EQ(cache.variant_size(), cache.size());
    }
  }
}

TEST(VariantKey, DistinctFingerprintsShareTheStructuralLevel) {
  // Two lowerers with different fingerprints but identical lowering: the
  // second one's first probe misses the variant level, lowers, and is
  // answered by the structural level — the ground truth is shared, the
  // variant keys are not.
  kernels::SorConfig cfg;
  cfg.im = cfg.jm = cfg.km = kDim;
  cfg.nki = 10;
  const KeyedLowerer a = kernels::sor_lowerer(cfg);
  const dse::FnLowerer b{[cfg](const frontend::Variant& v) {
    kernels::SorConfig c = cfg;
    c.lanes = v.lanes();
    return kernels::make_sor(c);
  }};
  ASSERT_NE(a.fingerprint(), "");

  const auto db = cost::DeviceCostDb::calibrate(target::fig15_profile());
  const std::uint64_t n = std::uint64_t{kDim} * kDim * kDim;
  const auto v = frontend::reshape_to(frontend::baseline_variant(n), 4,
                                      frontend::ParAnn::Par);
  CostCache cache;
  CostCache::HitLevel level = CostCache::HitLevel::Variant;
  cache.cost(v, a, db, &level);
  EXPECT_EQ(level, CostCache::HitLevel::Miss);
  // Key-less lowerer, same design: resolves at the structural level.
  cache.cost(v, b, db, &level);
  EXPECT_EQ(level, CostCache::HitLevel::Structural);
  EXPECT_EQ(cache.size(), 1u);
  // The keyed lowerer now hits before lowering.
  cache.cost(v, a, db, &level);
  EXPECT_EQ(level, CostCache::HitLevel::Variant);
}

TEST(VariantKey, DevicesDoNotCrossHit) {
  const KeyedLowerer sor = sor_keyed();
  const auto sv = cost::DeviceCostDb::calibrate(target::stratix_v_gsd8());
  const auto v7 = cost::DeviceCostDb::calibrate(target::virtex7_690t());
  const std::uint64_t n = std::uint64_t{kDim} * kDim * kDim;
  const auto v = frontend::baseline_variant(n);
  CostCache cache;
  CostCache::HitLevel level = CostCache::HitLevel::Variant;
  cache.cost(v, sor, sv, &level);
  EXPECT_EQ(level, CostCache::HitLevel::Miss);
  cache.cost(v, sor, v7, &level);
  EXPECT_EQ(level, CostCache::HitLevel::Miss);
  EXPECT_EQ(cache.variant_size(), 2u);
  EXPECT_EQ(cache.stats().variant_hits, 0u);
}

// --------------------------------------------------------------------------
// Sweep byte-identity: keyed vs shim vs raw-function lowering
// --------------------------------------------------------------------------

TEST(VariantKey, KeyedSweepIsByteIdenticalToFnSweepColdAndWarm) {
  const auto db = cost::DeviceCostDb::calibrate(target::fig15_profile());
  dse::Job fn_job = sor_job(std::make_shared<dse::FnLowerer>(sor_fn()), db);
  fn_job.max_lanes = 16;
  const auto base = dse::Session(uncached()).explore(fn_job);

  dse::Job keyed_job = sor_job(std::make_shared<KeyedLowerer>(sor_keyed()), db);
  keyed_job.max_lanes = 16;
  dse::Session session;
  const auto cold = session.explore(keyed_job);
  const auto warm = session.explore(keyed_job);
  EXPECT_EQ(dse::format_sweep(cold), dse::format_sweep(base));
  EXPECT_EQ(dse::format_sweep(warm), dse::format_sweep(base));
  EXPECT_EQ(dse::format_pareto(cold), dse::format_pareto(base));
  EXPECT_EQ(dse::format_pareto(warm), dse::format_pareto(base));
  EXPECT_EQ(cold.cache_stats.variant_hits, 0u);
  EXPECT_EQ(cold.cache_stats.misses, cold.entries.size());
  EXPECT_EQ(warm.cache_stats.variant_hits, warm.entries.size());
  EXPECT_EQ(warm.cache_stats.hits, warm.entries.size());
}

// --------------------------------------------------------------------------
// BuildArena
// --------------------------------------------------------------------------

TEST(BuildArena, RecycledLoweringIsByteIdentical) {
  ir::BuildArena arena;
  const KeyedLowerer sor = sor_keyed();
  const std::uint64_t n = std::uint64_t{kDim} * kDim * kDim;
  // Lower the whole family twice through one arena, recycling between
  // variants — every module must match the arena-less build byte for
  // byte (capacity reuse must never leak content).
  for (int round = 0; round < 2; ++round) {
    for (const auto& v : frontend::enumerate_variants(n, 16)) {
      ir::Module with_arena = sor.lower(v, &arena);
      const ir::Module plain = sor.lower(v);
      EXPECT_EQ(ir::print_module(with_arena), ir::print_module(plain));
      arena.recycle(std::move(with_arena));
    }
  }
}

// --------------------------------------------------------------------------
// Divisor ladder (shared by the tuner and enumerate_variants)
// --------------------------------------------------------------------------

TEST(Divisors, MatchesBruteForceWithAndWithoutCap) {
  for (const std::uint64_t n :
       {std::uint64_t{1}, std::uint64_t{7}, std::uint64_t{24},
        std::uint64_t{576}, std::uint64_t{13824}, std::uint64_t{13825},
        std::uint64_t{1} << 20}) {
    std::vector<std::uint64_t> expected;
    for (std::uint64_t d = 1; d <= n; ++d) {
      if (n % d == 0) expected.push_back(d);
    }
    EXPECT_EQ(frontend::divisors(n), expected) << "n=" << n;
    for (const std::uint64_t cap : {std::uint64_t{1}, std::uint64_t{16},
                                    std::uint64_t{100}, n}) {
      std::vector<std::uint64_t> capped;
      for (const std::uint64_t d : expected) {
        if (d <= cap) capped.push_back(d);
      }
      EXPECT_EQ(frontend::divisors(n, cap), capped)
          << "n=" << n << " cap=" << cap;
    }
  }
  EXPECT_THROW(frontend::divisors(0), std::invalid_argument);
}

TEST(Divisors, EnumerateVariantsMatchesLegacyScan) {
  for (const std::uint64_t n : {std::uint64_t{13824}, std::uint64_t{576},
                                std::uint64_t{1024}, std::uint64_t{97}}) {
    for (const std::uint32_t max_lanes : {1u, 16u, 48u}) {
      const auto variants = frontend::enumerate_variants(n, max_lanes);
      // Legacy definition: baseline, then every dividing lane count in
      // [2, max_lanes] ascending.
      std::vector<std::uint64_t> expected_lanes{1};
      for (std::uint64_t lanes = 2; lanes <= max_lanes; ++lanes) {
        if (n % lanes == 0) expected_lanes.push_back(lanes);
      }
      std::vector<std::uint64_t> actual_lanes;
      for (const auto& v : variants) actual_lanes.push_back(v.lanes());
      EXPECT_EQ(actual_lanes, expected_lanes)
          << "n=" << n << " max_lanes=" << max_lanes;
    }
  }
}

// --------------------------------------------------------------------------
// Tuner guards
// --------------------------------------------------------------------------

TEST(TunerGuards, NonPositiveStepBudgetYieldsEmptyTrajectory) {
  const auto db = cost::DeviceCostDb::calibrate(target::fig15_profile());
  dse::Job job = sor_job(std::make_shared<KeyedLowerer>(sor_keyed()), db);
  dse::Session session(uncached());
  for (const int max_steps : {0, -1, -100}) {
    job.max_steps = max_steps;
    const auto result = session.tune(job);
    EXPECT_TRUE(result.trajectory.empty()) << "max_steps=" << max_steps;
    EXPECT_NE(result.verdict, "");
    // format_tune used to dereference trajectory[best] here: UB on empty.
    const std::string text = dse::format_tune(result);
    EXPECT_NE(text.find(result.verdict), std::string::npos);
    EXPECT_EQ(text.find("best:"), std::string::npos);
  }
}

TEST(TunerGuards, KeyedTunerMatchesFnTunerAndRidesVariantKeys) {
  const auto db = cost::DeviceCostDb::calibrate(target::fig15_profile());
  const dse::Job keyed =
      sor_job(std::make_shared<KeyedLowerer>(sor_keyed()), db);
  const dse::Job fn = sor_job(std::make_shared<dse::FnLowerer>(sor_fn()), db);
  const auto a = dse::Session(uncached()).tune(fn);
  const auto b = dse::Session(uncached()).tune(keyed);
  EXPECT_EQ(dse::format_tune(a), dse::format_tune(b));

  // A warm cache answers a rerun of the same trajectory entirely from
  // the variant-key table.
  dse::Session session;
  session.tune(keyed);
  const auto before = session.cache()->stats();
  const auto rerun = session.tune(keyed);
  const auto after = session.cache()->stats();
  EXPECT_EQ(dse::format_tune(rerun), dse::format_tune(b));
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.variant_hits - before.variant_hits,
            rerun.trajectory.size());
}

}  // namespace
