// Reproduces the §VI-A speed claim and tracks the estimator's own cost
// over time. The paper's dichotomy — a cost-model estimate in well under
// a second versus ~70 s for a vendor tool's preliminary estimate — is
// measured against the fabric synthesizer (full netlist + placement).
// On top of that, the driver times the DSE hot path itself: the SOR
// nd=64 variant sweep, single-threaded, in three cache regimes —
//   cold             no cache: lower + summarize + cost per variant;
//   key-less warm    a warm cache probed through a key-less LowerFn: it
//                    can never hit, so every variant is lowered and
//                    costed, and the cache must add next to nothing on
//                    top of the cold path;
//   warm (variant-key)  warm cache through a KeyedLowerer: identity is
//                    resolved before lowering, so a hit is a hash of a
//                    dozen integers, a shard lock and a map lookup — no
//                    IR exists at all.
// Each is reported as per-variant microseconds and variants/second. The
// run fails when the key-less regime hits at all or costs more than
// 1.25x cold per variant. The cold path is then split into its stages —
// lower, ir::summarize and cost_design over the summary — timed per call
// on the same SOR variants and on a generator regime: 50 generated
// kernels (fixed seeds) through the file lowerer, every lane variant
// each, the shape of most designs a campaign evaluates.
//
// Usage:
//   bench_estimator_speed [--json <path>] [--baseline <path>]
//     --json <path>      also write the measurements as JSON (the CI
//                        perf-trajectory artifact, BENCH_estimator.json)
//     --baseline <path>  read a previous JSON and exit non-zero when the
//                        warm-cache per-variant cost regressed by more
//                        than 2x, or when the variant-key warm path falls
//                        under 5x faster than cold (CI regression gates)
//
// Baselines travel between machines: every report carries a
// machine-speed probe (a fixed CPU-bound workload), and the regression
// gate rescales the baseline by the probe ratio, so a slower CI runner
// is not mistaken for a code regression (nor a faster one for a fix).
// The warm<=cold/5 gate needs no rescaling: both sides run here.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "tytra/cost/report.hpp"
#include "tytra/dse/session.hpp"
#include "tytra/fabric/synth.hpp"
#include "tytra/kernels/file_workload.hpp"
#include "tytra/kernels/generator.hpp"
#include "tytra/kernels/kernels.hpp"
#include "tytra/kernels/registry.hpp"
#include "tytra/support/hash.hpp"

namespace {

using namespace tytra;

constexpr std::uint32_t kNd = 64;  // 64^3 = 262144 work-items
constexpr std::uint32_t kThreads = 1;

const target::DeviceDesc& dev() {
  static const target::DeviceDesc d = target::stratix_v_gsd8();
  return d;
}
const cost::DeviceCostDb& db() {
  static const auto calibrated = cost::DeviceCostDb::calibrate(dev());
  return calibrated;
}

kernels::SorConfig sor_config() {
  kernels::SorConfig cfg;
  cfg.im = cfg.jm = cfg.km = kNd;
  cfg.nki = 10;
  return cfg;
}

/// The variant-key path: identity resolved before lowering. Built by the
/// workload registry — the same job `tytra-cc explore sor` runs (the
/// registry's SOR config matches sor_config(): nd^3 grid, nki=10).
dse::Job sor_keyed_job() {
  auto job = kernels::Registry::instance().make_job("sor", kNd);
  if (!job.ok()) {
    std::fprintf(stderr, "bench_estimator_speed: %s\n",
                 job.error_message().c_str());
    std::exit(1);
  }
  dse::Job out = std::move(job).take();
  out.db = &db();
  return out;
}

/// The key-less path every pre-Lowerer caller uses: no identity, so no
/// memoization.
dse::Job sor_fn_job() {
  dse::Job job = sor_keyed_job();
  job.lower = std::make_shared<dse::FnLowerer>([](const frontend::Variant& v) {
    kernels::SorConfig cfg = sor_config();
    cfg.lanes = v.lanes();
    return kernels::make_sor(cfg);
  });
  return job;
}

double now_minus(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct SweepTiming {
  std::size_t variants{0};
  double us_per_variant{0};
  double variants_per_sec{0};
  dse::CacheStats stats;  ///< the final rep's per-sweep hit accounting
};

/// Times a session sweep over the SOR family, best-of-N to shed
/// scheduler noise. The session decides the cache regime: a cache-less
/// session is the cold configuration, a warm session's cache answers
/// keyed jobs and misses every variant of a key-less one.
SweepTiming time_sweep(dse::Session& session, const dse::Job& job, int reps) {
  SweepTiming out;
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = session.explore(job);
    const double s = now_minus(t0);
    out.variants = r.entries.size();
    out.stats = r.cache_stats;
    best = std::min(best, s);
  }
  out.us_per_variant = best / static_cast<double>(out.variants) * 1e6;
  out.variants_per_sec = static_cast<double>(out.variants) / best;
  return out;
}

/// One session per cache regime, same thread policy.
dse::Session make_session(bool enable_cache) {
  dse::SessionOptions so;
  so.num_threads = kThreads;
  so.enable_cache = enable_cache;
  return dse::Session(so);
}

/// Per-call cost of each cold-path stage over one set of designs.
struct StageTiming {
  std::size_t calls{0};
  double lower_us{0};
  double summarize_us{0};
  double cost_design_us{0};
};

/// A lowerer and the variants of it to lower.
struct StageWork {
  std::shared_ptr<const dse::Lowerer> lower;
  std::vector<frontend::Variant> variants;
};

/// Times lower, summarize and cost_design (summary overload) separately,
/// each as one pass over every (lowerer, variant) pair, best of `reps`.
StageTiming time_stages(const std::vector<StageWork>& work, int reps) {
  StageTiming out;
  for (const auto& w : work) out.calls += w.variants.size();
  std::vector<ir::Module> modules;
  std::vector<ir::AnalysisSummary> summaries;
  modules.reserve(out.calls);
  summaries.reserve(out.calls);
  double best_lower = 1e300;
  double best_summarize = 1e300;
  double best_cost = 1e300;
  volatile double sink = 0;
  for (int rep = 0; rep < reps; ++rep) {
    summaries.clear();
    modules.clear();
    auto t0 = std::chrono::steady_clock::now();
    for (const auto& w : work) {
      for (const auto& v : w.variants) modules.push_back(w.lower->lower(v));
    }
    best_lower = std::min(best_lower, now_minus(t0));
    t0 = std::chrono::steady_clock::now();
    for (const auto& m : modules) summaries.push_back(ir::summarize(m));
    best_summarize = std::min(best_summarize, now_minus(t0));
    t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < modules.size(); ++i) {
      sink = sink + cost::cost_design(modules[i], db(), summaries[i])
                        .throughput.ekit;
    }
    best_cost = std::min(best_cost, now_minus(t0));
  }
  const double per_call = 1e6 / static_cast<double>(out.calls);
  out.lower_us = best_lower * per_call;
  out.summarize_us = best_summarize * per_call;
  out.cost_design_us = best_cost * per_call;
  return out;
}

/// The SOR sweep's variants through its keyed lowerer.
std::vector<StageWork> sor_stage_work(const dse::Job& job) {
  return {{job.lower, frontend::enumerate_variants(job.n, 16)}};
}

/// Generated kernels 1..50 through the file lowerer, every lane variant.
std::vector<StageWork> generator_stage_work() {
  std::vector<StageWork> work;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    auto baseline =
        std::make_shared<const ir::Module>(kernels::generate_kernel(seed));
    work.push_back({std::make_shared<dse::KeyedLowerer>(
                        kernels::file_lowerer(baseline)),
                    frontend::enumerate_variants(baseline->meta.global_size,
                                                 16)});
  }
  return work;
}

std::string stage_json(const StageTiming& t) {
  std::ostringstream os;
  os << "{\"calls\": " << t.calls << ", \"lower_us\": " << t.lower_us
     << ", \"summarize_us\": " << t.summarize_us
     << ", \"cost_design_us\": " << t.cost_design_us << "}";
  return os.str();
}

/// A fixed CPU-bound workload (integer mixing, the same family of
/// operations the hot path leans on) timed best-of-N: a portable proxy
/// for single-thread machine speed. Reports carry it so a baseline
/// recorded on one machine can be rescaled on another.
double machine_probe_us() {
  double best = 1e300;
  volatile std::uint64_t sink = 0;
  for (int rep = 0; rep < 7; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t h = 0x243f6a8885a308d3ULL;
    for (std::uint32_t i = 0; i < 2'000'000; ++i) h = hash_mix(h, i);
    sink = sink + h;
    best = std::min(best, now_minus(t0) * 1e6);
  }
  return best;
}

/// Pulls the number that follows `"<field>":` inside the section opened
/// by `"<section>"` (pass an empty section for a top-level field) out of
/// a previous JSON report. Returns a negative value when absent.
double read_field(const std::string& json, const std::string& section,
                  const std::string& field) {
  std::size_t from = 0;
  if (!section.empty()) {
    from = json.find("\"" + section + "\"");
    if (from == std::string::npos) return -1.0;
  }
  const auto key = json.find("\"" + field + "\"", from);
  if (key == std::string::npos) return -1.0;
  const auto colon = json.find(':', key);
  if (colon == std::string::npos) return -1.0;
  return std::strtod(json.c_str() + colon + 1, nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_estimator_speed [--json path] "
                   "[--baseline path]\n");
      return 2;
    }
  }

  // --- The paper's headline: estimator vs vendor-style synthesis --------
  kernels::SorConfig cfg16;
  cfg16.im = cfg16.jm = cfg16.km = 24;
  cfg16.lanes = 16;
  const ir::Module m16 = kernels::make_sor(cfg16);
  const auto te0 = std::chrono::steady_clock::now();
  const auto report = cost::cost_design(m16, db());
  const double est_s = now_minus(te0);
  const auto ts0 = std::chrono::steady_clock::now();
  const auto synth = fabric::synthesize(m16, dev(), {.effort = 8});
  const double synth_s = now_minus(ts0);

  std::printf("=== estimator vs vendor-style synthesis (SOR, 16 lanes) ===\n");
  std::printf("cost-model estimate : %10.6f s  (EKIT %.1f /s)\n", est_s,
              report.throughput.ekit);
  std::printf("fabric synthesis    : %10.6f s  (fmax %.1f MHz)\n", synth_s,
              synth.fmax_hz / 1e6);
  std::printf("speedup             : %10.0fx   (paper: >200x)\n",
              synth_s / est_s);

  // --- The DSE hot path: per-variant cost by cache regime ---------------
  const dse::Job keyed_job = sor_keyed_job();
  const dse::Job fn_job = sor_fn_job();
  dse::Session cold_session = make_session(/*enable_cache=*/false);
  const SweepTiming cold = time_sweep(cold_session, keyed_job, 120);
  dse::Session warm_session = make_session(/*enable_cache=*/true);
  time_sweep(warm_session, keyed_job, 1);  // fill the cache
  // Key-less lowering against the warm cache: nothing can hit, so this
  // is the cold path plus whatever the cache adds to a lookup it cannot
  // answer.
  const SweepTiming keyless_warm = time_sweep(warm_session, fn_job, 120);
  // Keyed lowering against the warm cache: no IR is materialized at all.
  const SweepTiming warm = time_sweep(warm_session, keyed_job, 120);
  if (warm.stats.variant_hits != warm.variants ||
      keyless_warm.stats.hits != 0 ||
      keyless_warm.stats.misses != keyless_warm.variants) {
    std::fprintf(stderr,
                 "bench_estimator_speed: hit accounting is off — warm "
                 "variant-key hits %llu/%zu, key-less warm hits %llu "
                 "(misses %llu/%zu); the regimes are not measuring what "
                 "their labels claim\n",
                 static_cast<unsigned long long>(warm.stats.variant_hits),
                 warm.variants,
                 static_cast<unsigned long long>(keyless_warm.stats.hits),
                 static_cast<unsigned long long>(keyless_warm.stats.misses),
                 keyless_warm.variants);
    return 1;
  }
  // A lookup the cache cannot answer must cost about what no cache
  // costs: both sides run here, so no probe rescaling is involved.
  if (keyless_warm.us_per_variant > 1.25 * cold.us_per_variant) {
    std::fprintf(stderr,
                 "bench_estimator_speed: REGRESSION — key-less lookups "
                 "through a warm cache cost %.2f us/variant, over 1.25x the "
                 "cold path %.2f us/variant\n",
                 keyless_warm.us_per_variant, cold.us_per_variant);
    return 1;
  }

  std::printf("\n=== SOR nd=%u sweep, %u thread(s), %zu variants ===\n", kNd,
              kThreads, cold.variants);
  std::printf("cold pipeline      : %8.2f us/variant  (%.0f variants/s)\n",
              cold.us_per_variant, cold.variants_per_sec);
  std::printf("key-less, warm     : %8.2f us/variant  (%.0f variants/s)\n",
              keyless_warm.us_per_variant, keyless_warm.variants_per_sec);
  std::printf("warm, variant-key  : %8.2f us/variant  (%.0f variants/s)\n",
              warm.us_per_variant, warm.variants_per_sec);
  std::printf("variant-key speedup: %8.1fx vs cold\n",
              cold.us_per_variant / warm.us_per_variant);

  const StageTiming sor_stages = time_stages(sor_stage_work(keyed_job), 120);
  const StageTiming gen_stages = time_stages(generator_stage_work(), 15);
  std::printf("\n=== cold path by stage, us per call (best of N) ===\n");
  std::printf("%-28s %9s %11s %12s\n", "", "lower", "summarize",
              "cost_design");
  const auto stage_row = [](const char* what, const StageTiming& t) {
    std::printf("%-28s %9.2f %11.2f %12.2f\n", what, t.lower_us,
                t.summarize_us, t.cost_design_us);
  };
  char sor_label[64];
  std::snprintf(sor_label, sizeof sor_label, "SOR nd=%u (%zu variants)", kNd,
                sor_stages.calls);
  stage_row(sor_label, sor_stages);
  char gen_label[64];
  std::snprintf(gen_label, sizeof gen_label, "generator x50 (%zu variants)",
                gen_stages.calls);
  stage_row(gen_label, gen_stages);

  const double probe_us = machine_probe_us();

  if (!json_path.empty()) {
    std::ostringstream os;
    os << "{\n";
    os << "  \"bench\": \"estimator_speed\",\n";
    os << "  \"machine_probe_us\": " << probe_us << ",\n";
    os << "  \"kernel\": \"sor\",\n";
    os << "  \"nd\": " << kNd << ",\n";
    os << "  \"variants\": " << cold.variants << ",\n";
    os << "  \"threads\": " << kThreads << ",\n";
    os << "  \"cold\": {\"us_per_variant\": " << cold.us_per_variant
       << ", \"variants_per_sec\": " << cold.variants_per_sec << "},\n";
    os << "  \"keyless_warm\": {\"us_per_variant\": "
       << keyless_warm.us_per_variant
       << ", \"variants_per_sec\": " << keyless_warm.variants_per_sec
       << ", \"hits\": " << keyless_warm.stats.hits << "},\n";
    os << "  \"warm\": {\"us_per_variant\": " << warm.us_per_variant
       << ", \"variants_per_sec\": " << warm.variants_per_sec
       << ", \"hit_level\": \"variant-key\"},\n";
    os << "  \"warm_speedup_vs_cold\": "
       << cold.us_per_variant / warm.us_per_variant << ",\n";
    os << "  \"estimate_seconds_16lane\": " << est_s << ",\n";
    os << "  \"synth_seconds_16lane\": " << synth_s << ",\n";
    os << "  \"speedup_vs_synth\": " << synth_s / est_s << ",\n";
    os << "  \"cold_stages\": {\"sor\": " << stage_json(sor_stages)
       << ", \"generator\": " << stage_json(gen_stages) << "}\n";
    os << "}\n";
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "bench_estimator_speed: cannot write '%s'\n",
                   json_path.c_str());
      return 1;
    }
    out << os.str();
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::fprintf(stderr, "bench_estimator_speed: cannot read baseline '%s'\n",
                   baseline_path.c_str());
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string baseline_json = ss.str();
    double base_warm = read_field(baseline_json, "warm", "us_per_variant");
    if (base_warm <= 0) {
      std::fprintf(stderr,
                   "bench_estimator_speed: baseline '%s' has no warm "
                   "us_per_variant\n",
                   baseline_path.c_str());
      return 1;
    }
    // Rescale a baseline recorded on different hardware: if this machine
    // runs the fixed probe k times slower, k times the microseconds are
    // expected, not a regression.
    const double base_probe =
        read_field(baseline_json, "", "machine_probe_us");
    if (base_probe > 0) {
      base_warm *= probe_us / base_probe;
    }
    std::printf(
        "baseline warm : %8.2f us/variant (machine-adjusted; measured "
        "%.2f, limit 2x)\n",
        base_warm, warm.us_per_variant);
    if (warm.us_per_variant > 2.0 * base_warm) {
      std::fprintf(stderr,
                   "bench_estimator_speed: REGRESSION — warm per-variant "
                   "cost %.2f us exceeds 2x the machine-adjusted baseline "
                   "%.2f us\n",
                   warm.us_per_variant, base_warm);
      return 1;
    }
    // The variant-key fast path must stay categorically faster than
    // lowering + costing: warm <= cold/5. Both sides run on this machine,
    // so no probe rescaling is involved.
    if (warm.us_per_variant > cold.us_per_variant / 5.0) {
      std::fprintf(stderr,
                   "bench_estimator_speed: REGRESSION — variant-key warm "
                   "path %.2f us/variant is under 5x faster than the cold "
                   "path %.2f us/variant\n",
                   warm.us_per_variant, cold.us_per_variant);
      return 1;
    }
  }
  return 0;
}
