// Tests for the streaming structural hash that `.tir` workload
// fingerprints are built on, for the cost cache's report identity, and
// for the one-traversal AnalysisSummary parity with the legacy
// per-question analyses.
//
// The hash contract: equal printed IR <=> equal digest (checked across
// all three kernels and a variant sweep), and any difference the printer
// would show — a port, an offset, a metadata field, an instruction —
// changes the digest.

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "tytra/cost/report.hpp"
#include "tytra/dse/cache.hpp"
#include "tytra/frontend/transform.hpp"
#include "tytra/ir/analysis.hpp"
#include "tytra/ir/parser.hpp"
#include "tytra/ir/printer.hpp"
#include "tytra/ir/structural_hash.hpp"
#include "tytra/kernels/generator.hpp"
#include "tytra/kernels/kernels.hpp"
#include "tytra/kernels/lowerers.hpp"
#include "tytra/kernels/registry.hpp"
#include "tytra/sim/cycle_model.hpp"

namespace {

using namespace tytra;
using ir::StructuralDigest;

ir::Module sor(std::uint32_t lanes, std::uint32_t dim = 24) {
  kernels::SorConfig cfg;
  cfg.im = cfg.jm = cfg.km = dim;
  cfg.lanes = lanes;
  cfg.nki = 10;
  return kernels::make_sor(cfg);
}

/// The keyed lowerer that sor(lanes) is one variant of.
dse::KeyedLowerer sor_keyed() {
  kernels::SorConfig cfg;
  cfg.im = cfg.jm = cfg.km = 24;
  cfg.nki = 10;
  return kernels::sor_lowerer(cfg);
}

/// The `lanes`-lane variant of an n-item NDRange.
frontend::Variant lanes_variant(std::uint64_t n, std::uint32_t lanes) {
  const frontend::Variant base = frontend::baseline_variant(n);
  return lanes == 1 ? base
                    : frontend::reshape_to(base, lanes, frontend::ParAnn::Par);
}

ir::Module hotspot(std::uint32_t lanes) {
  kernels::HotspotConfig cfg;
  cfg.rows = cfg.cols = 24;
  cfg.lanes = lanes;
  return kernels::make_hotspot(cfg);
}

ir::Module lavamd(std::uint32_t lanes) {
  kernels::LavamdConfig cfg;
  cfg.particles = 1024;
  cfg.lanes = lanes;
  return kernels::make_lavamd(cfg);
}

// --------------------------------------------------------------------------
// Equal printed IR <=> equal digest
// --------------------------------------------------------------------------

#ifdef TYTRA_SOURCE_DIR
std::string source_dir() { return TYTRA_SOURCE_DIR; }
#else
std::string source_dir() { return "."; }
#endif

/// The shipped example `.tir` modules, parsed.
std::vector<ir::Module> example_modules() {
  std::vector<ir::Module> out;
  for (const char* name : {"blur.tir", "dotacc.tir", "sor.tir"}) {
    std::ifstream in(source_dir() + "/examples/ir/" + name);
    std::ostringstream text;
    text << in.rdbuf();
    auto parsed = ir::parse_module(text.str());
    EXPECT_TRUE(parsed.ok()) << name << ": " << parsed.error_message();
    if (parsed.ok()) out.push_back(std::move(parsed).take().module);
  }
  return out;
}

TEST(StructuralHash, PrintEqualityMatchesDigestEqualityAcrossKernelsAndSweep) {
  // The cache keeps no printed IR, so this is where "equal digest means
  // equal printed IR" is pinned: built-in sweeps, the 200-seed generator
  // corpus and the shipped examples, each compared against all others.
  std::vector<ir::Module> designs;
  for (const std::uint32_t lanes : {1u, 2u, 4u, 8u}) {
    designs.push_back(sor(lanes));
    designs.push_back(hotspot(lanes));
    designs.push_back(lavamd(lanes));
  }
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    designs.push_back(kernels::generate_kernel(seed));
  }
  const std::vector<ir::Module> examples = example_modules();
  ASSERT_EQ(examples.size(), 3u);
  designs.insert(designs.end(), examples.begin(), examples.end());
  // Rebuilding the same design must reproduce both print and digest.
  designs.push_back(sor(4));
  designs.push_back(hotspot(2));
  designs.push_back(kernels::generate_kernel(17));
  designs.push_back(example_modules().back());

  std::vector<std::string> prints;
  std::vector<StructuralDigest> digests;
  std::vector<std::uint64_t> hashes;
  for (const ir::Module& m : designs) {
    prints.push_back(ir::print_module(m));
    digests.push_back(ir::structural_digest(m));
    hashes.push_back(ir::structural_digest(m).key);
  }
  std::size_t equal_pairs = 0;
  for (std::size_t i = 0; i < designs.size(); ++i) {
    for (std::size_t j = 0; j < designs.size(); ++j) {
      const bool print_equal = prints[i] == prints[j];
      equal_pairs += print_equal && i != j ? 1 : 0;
      EXPECT_EQ(print_equal, digests[i] == digests[j])
          << "designs " << i << " vs " << j;
      EXPECT_EQ(print_equal, hashes[i] == hashes[j])
          << "designs " << i << " vs " << j;
    }
  }
  EXPECT_GE(equal_pairs, 8u) << "the rebuilt designs must match their twins";
}

TEST(StructuralHash, RebuildingTheSameDesignIsStable) {
  const StructuralDigest a = ir::structural_digest(sor(4));
  const StructuralDigest b = ir::structural_digest(sor(4));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.key, ir::structural_digest(sor(4)).key);
}

// --------------------------------------------------------------------------
// Any printed difference changes the digest
// --------------------------------------------------------------------------

TEST(StructuralHash, EveryStructuralMutationChangesTheDigest) {
  const ir::Module base = sor(2);
  const StructuralDigest base_digest = ir::structural_digest(base);

  std::map<std::string, ir::Module> mutants;

  {
    ir::Module m = base;
    m.name += "_x";
    mutants.emplace("module name", std::move(m));
  }
  {
    ir::Module m = base;
    m.meta.global_size += 1;
    mutants.emplace("metadata: ngs", std::move(m));
  }
  {
    ir::Module m = base;
    m.meta.nki += 1;
    mutants.emplace("metadata: nki", std::move(m));
  }
  {
    ir::Module m = base;
    m.meta.form = ir::ExecForm::A;
    mutants.emplace("metadata: form", std::move(m));
  }
  {
    ir::Module m = base;
    m.meta.freq_hz = 150e6;
    mutants.emplace("metadata: fd", std::move(m));
  }
  {
    ir::Module m = base;
    m.meta.ii = 3;
    mutants.emplace("metadata: ii", std::move(m));
  }
  {
    ir::Module m = base;
    m.ports.pop_back();
    mutants.emplace("port: removed", std::move(m));
  }
  {
    ir::Module m = base;
    m.ports.front().init_offset = 7;
    mutants.emplace("port: init offset", std::move(m));
  }
  {
    ir::Module m = base;
    m.ports.front().dir = ir::StreamDir::Out;
    mutants.emplace("port: direction", std::move(m));
  }
  {
    ir::Module m = base;
    m.ports.front().pattern = ir::AccessPattern::Strided;
    mutants.emplace("port: pattern", std::move(m));
  }
  {
    ir::Module m = base;
    m.ports.front().type = ir::Type::vector_of(ir::ScalarType::uint(18), 4);
    mutants.emplace("port: type", std::move(m));
  }
  {
    ir::Module m = base;
    m.memobjs.front().size_words += 1;
    mutants.emplace("memobj: size", std::move(m));
  }
  {
    ir::Module m = base;
    m.streamobjs.front().pattern = ir::AccessPattern::Strided;
    m.streamobjs.front().stride_words = 24;
    mutants.emplace("streamobj: pattern+stride", std::move(m));
  }
  {
    ir::Module m = base;
    for (auto& item : m.functions.front().body) {
      if (auto* off = std::get_if<ir::OffsetDecl>(&item)) {
        off->offset += 1;
        break;
      }
    }
    mutants.emplace("offset decl: distance", std::move(m));
  }
  {
    ir::Module m = base;
    for (auto& item : m.functions.front().body) {
      if (auto* instr = std::get_if<ir::Instr>(&item)) {
        instr->op = ir::Opcode::Add;
        break;
      }
    }
    mutants.emplace("instruction: opcode", std::move(m));
  }
  {
    ir::Module m = base;
    for (auto& item : m.functions.front().body) {
      if (auto* instr = std::get_if<ir::Instr>(&item)) {
        instr->type = ir::Type::scalar_of(ir::ScalarType::uint(32));
        break;
      }
    }
    mutants.emplace("instruction: type", std::move(m));
  }
  {
    ir::Module m = base;
    ir::Function& f = m.functions.front();
    f.body.pop_back();
    mutants.emplace("instruction: removed", std::move(m));
  }
  {
    ir::Module m = base;
    for (auto& item : m.functions.back().body) {
      if (auto* call = std::get_if<ir::Call>(&item)) {
        call->kind_annot = ir::FuncKind::Seq;
        break;
      }
    }
    mutants.emplace("call: kind annotation", std::move(m));
  }

  for (const auto& [what, mutant] : mutants) {
    EXPECT_NE(ir::structural_digest(mutant), base_digest) << what;
    // The mutation is visible to the printer too — the digest contract
    // tracks printed identity from both sides.
    EXPECT_NE(ir::print_module(mutant), ir::print_module(base)) << what;
  }
}

// --------------------------------------------------------------------------
// The cost cache's report identity
// --------------------------------------------------------------------------

TEST(StructuralHash, CacheHitReportEqualsDirectCostReport) {
  const auto db = cost::DeviceCostDb::calibrate(target::stratix_v_gsd8());
  dse::CostCache cache;
  const dse::KeyedLowerer lower = sor_keyed();
  const frontend::Variant v = lanes_variant(24 * 24 * 24, 4);
  bool hit = true;
  const cost::CostReport miss_report = cache.cost(v, lower, db, &hit);
  EXPECT_FALSE(hit);
  const cost::CostReport hit_report = cache.cost(v, lower, db, &hit);
  EXPECT_TRUE(hit);
  const cost::CostReport direct = cost::cost_design(sor(4), db);
  // format_report covers every user-visible field of the report.
  EXPECT_EQ(cost::format_report(hit_report), cost::format_report(miss_report));
  const std::string a = cost::format_report(hit_report);
  const std::string b = cost::format_report(direct);
  // The estimate wall-time line differs run to run; compare the rest.
  EXPECT_EQ(a.substr(0, a.rfind("estimated in")),
            b.substr(0, b.rfind("estimated in")));
}

TEST(StructuralHash, DefaultCacheServesAllLookups) {
  const auto db = cost::DeviceCostDb::calibrate(target::stratix_v_gsd8());
  dse::CostCache cache;
  const dse::KeyedLowerer lower = sor_keyed();
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::uint32_t lanes : {1u, 2u, 4u}) {
      cache.cost(lanes_variant(24 * 24 * 24, lanes), lower, db);
    }
  }
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().hits, 3u);
  EXPECT_EQ(cache.stats().misses, 3u);
}

// --------------------------------------------------------------------------
// AnalysisSummary parity with the legacy per-question analyses
// --------------------------------------------------------------------------

TEST(StructuralHash, EveryCacheHitPrintsAsTheDesignFirstInserted) {
  // One cache across the built-in corpus (3 kernels x nd {16..128} x the
  // 3 presets), run twice so every design also hits. The cache stores no
  // printed IR; the test prints each design itself and checks that a
  // hit is byte-identical to the design that first missed under the same
  // (device, variant key).
  dse::CostCache cache;
  std::map<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>,
           std::string>
      first;
  std::size_t hits = 0;
  std::vector<cost::DeviceCostDb> dbs;
  for (const std::string& preset : target::preset_names()) {
    dbs.push_back(cost::DeviceCostDb::calibrate(*target::preset(preset)));
  }
  for (int pass = 0; pass < 2; ++pass) {
    for (const cost::DeviceCostDb& db : dbs) {
      for (const char* kernel : {"sor", "hotspot", "lavamd"}) {
        for (const std::uint32_t nd : {16u, 24u, 32u, 48u, 64u, 96u, 128u}) {
          auto job = kernels::Registry::instance().make_job(kernel, nd);
          ASSERT_TRUE(job.ok()) << job.error_message();
          const dse::Lowerer& lower = *job.value().lower;
          for (const auto& v : frontend::enumerate_variants(job.value().n, 16)) {
            const ir::Module m = lower.lower(v);
            const auto key = lower.key(v);
            ASSERT_TRUE(key.has_value()) << kernel << " nd " << nd;
            const auto id =
                std::make_tuple(db.fingerprint(), key->key, key->check);
            bool was_hit = false;
            (void)cache.cost(v, lower, db, &was_hit);
            if (!was_hit) {
              EXPECT_TRUE(first.emplace(id, ir::print_module(m)).second)
                  << kernel << " nd " << nd << ": missed a resident design";
              continue;
            }
            ++hits;
            const auto it = first.find(id);
            ASSERT_NE(it, first.end()) << kernel << " nd " << nd;
            EXPECT_EQ(ir::print_module(m), it->second)
                << kernel << " nd " << nd << " on " << db.device().name;
          }
        }
      }
    }
  }
  EXPECT_EQ(cache.size(), first.size());
  EXPECT_GE(hits, first.size()) << "the second pass must hit every design";
}

TEST(AnalysisSummary, MatchesLegacyAnalysesOnAllKernels) {
  const std::vector<ir::Module> designs = {sor(1), sor(8), hotspot(4),
                                           lavamd(2)};
  for (const auto& m : designs) {
    const ir::AnalysisSummary s = ir::summarize(m);
    EXPECT_EQ(s.config, ir::classify_config(m));
    EXPECT_EQ(s.params.knl, ir::lane_count(m));
    EXPECT_EQ(s.params.kpd, ir::pipeline_depth(m));

    const ir::DesignParams legacy = ir::extract_params(m);
    EXPECT_EQ(s.params.ngs, legacy.ngs);
    EXPECT_DOUBLE_EQ(s.params.nwpt, legacy.nwpt);
    EXPECT_EQ(s.params.nki, legacy.nki);
    EXPECT_EQ(s.params.noff, legacy.noff);
    EXPECT_EQ(s.params.kpd, legacy.kpd);
    EXPECT_DOUBLE_EQ(s.params.nto, legacy.nto);
    EXPECT_DOUBLE_EQ(s.params.ni, legacy.ni);
    EXPECT_EQ(s.params.dv, legacy.dv);
    EXPECT_EQ(s.params.form, legacy.form);

    // Per-function schedules equal the one-off scheduler's.
    for (const auto& fs : s.functions) {
      const ir::FunctionSchedule one = ir::schedule_function(m, *fs.func);
      EXPECT_EQ(fs.schedule.depth, one.depth) << fs.func->name;
      EXPECT_EQ(fs.schedule.issue_at, one.issue_at) << fs.func->name;
      EXPECT_EQ(fs.schedule.arg_ready, one.arg_ready) << fs.func->name;
    }
  }
}

TEST(AnalysisSummary, EstimateFunctionAcceptsDetachedFunctionObjects) {
  // The public API takes any Function walked against the module — a copy
  // must cost exactly like the member it was copied from.
  const auto db = cost::DeviceCostDb::calibrate(target::fig15_profile());
  const ir::Module m = sor(4);
  const ir::Function copy = *m.entry();
  const tytra::ResourceVec via_member =
      cost::estimate_function(m, *m.entry(), db);
  const tytra::ResourceVec via_copy = cost::estimate_function(m, copy, db);
  EXPECT_EQ(via_member.to_string(), via_copy.to_string());
  EXPECT_GT(via_copy.aluts, 0.0);
}

TEST(AnalysisSummary, CostAndTimingOverloadsMatchModuleOnlyPaths) {
  const auto db = cost::DeviceCostDb::calibrate(target::fig15_profile());
  for (const std::uint32_t lanes : {1u, 4u, 16u}) {
    const ir::Module m = sor(lanes);
    const ir::AnalysisSummary s = ir::summarize(m);

    const cost::ResourceEstimate ra = cost::estimate_resources(m, db);
    const cost::ResourceEstimate rb = cost::estimate_resources(m, db, s);
    EXPECT_EQ(ra.total.to_string(), rb.total.to_string()) << lanes;
    EXPECT_EQ(ra.fits, rb.fits) << lanes;

    const auto ta = cost::estimate_throughput(m, db);
    const auto tb = cost::estimate_throughput(m, db, s);
    EXPECT_EQ(ta.ekit, tb.ekit) << lanes;
    EXPECT_EQ(ta.seconds_per_instance, tb.seconds_per_instance) << lanes;
    EXPECT_EQ(ta.limiting, tb.limiting) << lanes;

    const sim::TimingResult sa = sim::simulate_timing(m, db.device());
    const sim::TimingResult sb = sim::simulate_timing(m, db.device(), s);
    EXPECT_EQ(sa.cycles_per_instance, sb.cycles_per_instance) << lanes;
    EXPECT_EQ(sa.total_seconds, sb.total_seconds) << lanes;
  }
}

}  // namespace
