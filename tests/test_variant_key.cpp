// Tests for the cache identity: the pre-lowering variant key
// (dse::KeyedLowerer) is the cost cache's only key, so equal keys must
// lower to equal designs — equal printed IR and an equal structural
// digest — across every built-in, generated and example workload. Also:
// a key-less FnLowerer is never memoized and behaves exactly like the
// raw std::function path, and the divisor ladder shared by the tuner and
// the variant enumerator matches the brute-force definition.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "tytra/dse/cache.hpp"
#include "tytra/dse/session.hpp"
#include "tytra/ir/printer.hpp"
#include "tytra/ir/structural_hash.hpp"
#include "tytra/kernels/file_workload.hpp"
#include "tytra/kernels/generator.hpp"
#include "tytra/kernels/kernels.hpp"
#include "tytra/kernels/lowerers.hpp"
#include "tytra/kernels/registry.hpp"
#include "tytra/support/rng.hpp"

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

/// What one (lowerer, variant) pair lowered to, for the soundness check.
struct Lowered {
  std::string printed;
  ir::StructuralDigest digest;
  std::string origin;
};

/// Lowers every variant of `lower` up to `max_lanes` lanes and checks
/// that a key seen before names the same design: equal printed IR and an
/// equal structural digest. Returns the number of (key, design) pairs
/// checked.
std::size_t check_keys(const dse::Lowerer& lower, std::uint64_t n,
                       std::uint32_t max_lanes, const std::string& origin,
                       std::map<std::pair<std::uint64_t, std::uint64_t>,
                                Lowered>& seen) {
  std::size_t checked = 0;
  for (const auto& v : frontend::enumerate_variants(n, max_lanes)) {
    const auto key = lower.key(v);
    EXPECT_TRUE(key.has_value()) << origin;
    if (!key) continue;
    const ir::Module m = lower.lower(v);
    Lowered now{ir::print_module(m), ir::structural_digest(m),
                origin + " lanes=" + std::to_string(v.lanes())};
    const auto [it, fresh] = seen.try_emplace({key->key, key->check}, now);
    if (!fresh) {
      EXPECT_EQ(it->second.printed, now.printed)
          << now.origin << " shares a variant key with " << it->second.origin;
      EXPECT_EQ(it->second.digest, now.digest)
          << now.origin << " shares a variant key with " << it->second.origin;
    }
    ++checked;
  }
  return checked;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(VariantKey, AgreesWithStructuralKeyAcrossKernelsAndPresets) {
  // The variant key is the cache's only identity, so it must be sound:
  // equal keys name equal designs. Checked over the built-ins at every
  // benchmark nd, the 200-design generated corpus and the example .tir
  // files. Each source is lowered twice (a fresh lowerer the second
  // time), so every key is checked against at least one re-lowering.
  std::map<std::pair<std::uint64_t, std::uint64_t>, Lowered> seen;
  std::size_t first_round_keys = 0;
  const auto& registry = kernels::Registry::instance();
  for (int round = 0; round < 2; ++round) {
    std::size_t checked = 0;
    for (const char* kernel : {"sor", "hotspot", "lavamd"}) {
      for (const std::uint32_t nd : {16u, 24u, 32u, 48u, 64u, 96u, 128u}) {
        auto job = registry.make_job(kernel, nd);
        ASSERT_TRUE(job.ok()) << job.error_message();
        checked += check_keys(*job.value().lower, job.value().n, 16,
                              std::string(kernel) + " nd=" + std::to_string(nd),
                              seen);
      }
    }
    SplitMix64 seeds(7);
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t seed = seeds.next_u64();
      auto module =
          std::make_shared<const ir::Module>(kernels::generate_kernel(seed));
      const std::uint64_t n = module->meta.global_size;
      checked += check_keys(kernels::file_lowerer(std::move(module)), n, 8,
                            "generate_kernel(" + std::to_string(seed) + ")",
                            seen);
    }
#ifdef TYTRA_SOURCE_DIR
    const std::filesystem::path dir =
        std::filesystem::path(TYTRA_SOURCE_DIR) / "examples" / "ir";
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() != ".tir") continue;
      auto loaded = kernels::load_file_workload(read_file(entry.path()));
      ASSERT_TRUE(loaded.ok()) << entry.path() << ": " << loaded.error_message();
      const auto& baseline = loaded.value().baseline;
      checked += check_keys(kernels::file_lowerer(baseline),
                            baseline->meta.global_size, 16,
                            entry.path().filename().string(), seen);
    }
#endif
    EXPECT_GT(checked, 1000u);
    // The second round re-derives exactly the first round's keys.
    if (round == 0) first_round_keys = seen.size();
  }
  EXPECT_EQ(seen.size(), first_round_keys);

  // And the reports: across all three kernels x all three device presets
  // a warm lookup returns exactly the report the cold lookup and the raw
  // cost model compute.
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
        bool hit = true;
        const auto cold = cache.cost(v, c.lower, db, &hit);
        EXPECT_FALSE(hit);
        const auto warm = cache.cost(v, c.lower, db, &hit);
        EXPECT_TRUE(hit);
        const auto direct = cost::cost_design(c.lower.lower(v), db);
        EXPECT_EQ(stable_report(warm), stable_report(cold));
        EXPECT_EQ(stable_report(warm), stable_report(direct));
      }
      EXPECT_EQ(cache.size(), cache.stats().misses);
    }
  }
}

TEST(VariantKey, KeylessLookupsAlwaysMissAndStoreNothing) {
  kernels::SorConfig cfg;
  cfg.im = cfg.jm = cfg.km = kDim;
  cfg.nki = 10;
  const dse::FnLowerer keyless{[cfg](const frontend::Variant& v) {
    kernels::SorConfig c = cfg;
    c.lanes = v.lanes();
    return kernels::make_sor(c);
  }};
  const auto db = cost::DeviceCostDb::calibrate(target::fig15_profile());
  const auto v = frontend::reshape_to(frontend::baseline_variant(cfg.ngs()), 4,
                                      frontend::ParAnn::Par);
  CostCache cache;
  bool hit = true;
  const auto first = cache.cost(v, keyless, db, &hit);
  EXPECT_FALSE(hit);
  hit = true;
  const auto second = cache.cost(v, keyless, db, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.size(), 0u);
  const auto direct = cost::cost_design(keyless.lower(v), db);
  EXPECT_EQ(stable_report(first), stable_report(direct));
  EXPECT_EQ(stable_report(second), stable_report(direct));
}

TEST(VariantKey, DevicesDoNotCrossHit) {
  const KeyedLowerer sor = sor_keyed();
  const auto sv = cost::DeviceCostDb::calibrate(target::stratix_v_gsd8());
  const auto v7 = cost::DeviceCostDb::calibrate(target::virtex7_690t());
  const std::uint64_t n = std::uint64_t{kDim} * kDim * kDim;
  const auto v = frontend::baseline_variant(n);
  CostCache cache;
  bool hit = true;
  cache.cost(v, sor, sv, &hit);
  EXPECT_FALSE(hit);
  cache.cost(v, sor, v7, &hit);
  EXPECT_FALSE(hit);
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
