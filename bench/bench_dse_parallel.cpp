// Measures the parallel batched DSE engine against the sequential path:
// wall-clock for a full SOR variant sweep at max_lanes=64, sequential vs
// one worker per core, plus the warm-cache rerun (the tuner/bench-rerun
// case, where every evaluation is a lookup) — and the campaign regime:
// many small {workload x size x device} jobs scheduled job-by-job versus
// campaign-wide through Session::run's flattened work list — and the
// degraded-mode regime: the same campaign with one always-failing job
// appended, checking a contained fault costs only its own job's slot.
//
//   bench_dse_parallel [--smoke] [--gate]
//
// --smoke shrinks the grid and repetition count for CI. --gate fails the
// run (exit 1) when the campaign-wide schedule is not at least 2x faster
// than the job-by-job loop (skipped on machines with fewer than 4
// hardware threads, where the headroom does not exist), or when one
// failing job inflates campaign wall clock beyond 1.5x the healthy run.
//
// Runs through dse::Session — the same entry point users drive — with
// one session per regime: a cache-less session for the sequential and
// parallel sweeps (so they measure evaluation, not lookups) and a
// cache-owning session whose second sweep is the warm rerun. Lowering
// goes through kernels::sor_lowerer, whose variant keys are what the
// warm rerun hits.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "tytra/dse/session.hpp"
#include "tytra/kernels/kernels.hpp"
#include "tytra/kernels/lowerers.hpp"
#include "tytra/kernels/registry.hpp"

namespace {

using namespace tytra;

double now_seconds() {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::shared_ptr<const dse::Lowerer> sor_lower(std::uint32_t dim) {
  kernels::SorConfig cfg;
  cfg.im = cfg.jm = cfg.km = dim;
  cfg.nki = 10;
  return std::make_shared<dse::KeyedLowerer>(kernels::sor_lowerer(cfg));
}

double sweep_seconds(dse::Session& session, const dse::Job& job, int reps,
                     std::size_t& variants_out) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_seconds();
    const auto result = session.explore(job);
    const double t = now_seconds() - t0;
    if (t < best) best = t;
    variants_out = result.entries.size();
  }
  return best;
}

/// The many-small-jobs serving shape: {sor, hotspot, lavamd} x several
/// prime-ish sizes x two devices. Prime nd gives 1-2 variants per job
/// (only 1 and nd-derived divisors fit under the lane cap), so per-job
/// parallelism has nothing to chew on — the regime campaign-wide
/// scheduling exists for.
dse::Campaign small_jobs_campaign(bool smoke, std::size_t& variants_out) {
  const std::vector<std::uint32_t> sizes =
      smoke ? std::vector<std::uint32_t>{17, 19}
            : std::vector<std::uint32_t>{17, 19, 23, 29};
  // The jobs pin their own lane cap, and the variant count is derived
  // from the same value, so the printed total cannot drift from what
  // the campaign actually evaluates if session defaults change.
  constexpr std::uint32_t kLaneCap = 16;
  dse::Campaign campaign;
  variants_out = 0;
  for (const char* kernel : {"sor", "hotspot", "lavamd"}) {
    for (const std::uint32_t nd : sizes) {
      for (const char* device : {"stratix-v-gsd8", "fig15-profile"}) {
        auto job = kernels::Registry::instance().make_job(kernel, nd);
        if (!job.ok()) continue;
        dse::Job j = std::move(job).take();
        j.device = device;
        j.max_lanes = kLaneCap;
        variants_out += frontend::divisors(j.n, kLaneCap).size();
        campaign.jobs.push_back(std::move(j));
      }
    }
  }
  return campaign;
}

/// Best-of-`reps` wall clock of `iters` back-to-back campaign runs,
/// either job-by-job (the pre-pool Session::run schedule: each job's
/// sweep parallelizes alone, jobs strictly in sequence) or campaign-wide
/// through Session::run's flattened work list.
double campaign_seconds(dse::Session& session, const dse::Campaign& campaign,
                        int reps, int iters, bool flattened) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_seconds();
    for (int it = 0; it < iters; ++it) {
      if (flattened) {
        const auto result = session.run(campaign);
        if (result.jobs.size() != campaign.jobs.size()) return -1;
      } else {
        for (const dse::Job& job : campaign.jobs) session.explore(job);
      }
    }
    const double t = now_seconds() - t0;
    if (t < best) best = t;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool gate = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--gate") == 0) gate = true;
  }

  const std::uint32_t dim = smoke ? 24 : 48;
  const int reps = smoke ? 1 : 3;
  const std::uint64_t n = static_cast<std::uint64_t>(dim) * dim * dim;
  const auto db = cost::DeviceCostDb::calibrate(target::stratix_v_gsd8());
  const unsigned cores = std::thread::hardware_concurrency();

  dse::Job job;
  job.workload = "sor";
  job.nd = dim;
  job.n = n;
  job.lower = sor_lower(dim);
  job.db = &db;
  job.max_lanes = 64;

  std::printf("=== parallel DSE sweep: SOR %u^3 (%llu items), max_lanes=64, "
              "%u hardware threads ===\n\n",
              dim, static_cast<unsigned long long>(n), cores);

  dse::SessionOptions seq_opts;
  seq_opts.num_threads = 1;
  seq_opts.enable_cache = false;
  dse::SessionOptions par_opts = seq_opts;
  par_opts.num_threads = 0;  // one worker per core
  dse::SessionOptions warm_opts = par_opts;
  warm_opts.enable_cache = true;

  dse::Session seq(seq_opts);
  dse::Session par(par_opts);
  dse::Session warm(warm_opts);

  std::size_t variants = 0;
  const double t_seq = sweep_seconds(seq, job, reps, variants);
  const double t_par = sweep_seconds(par, job, reps, variants);

  warm.explore(job);  // cold fill of the session cache
  const double t_warm = sweep_seconds(warm, job, reps, variants);

  std::printf("%-28s %10.2f ms  (%.3f ms/variant)\n", "sequential (1 thread)",
              t_seq * 1e3, t_seq * 1e3 / static_cast<double>(variants));
  std::printf("%-28s %10.2f ms  (%.2fx speedup)\n", "parallel (all cores)",
              t_par * 1e3, t_seq / t_par);
  std::printf("%-28s %10.2f ms  (%.0fx vs sequential)\n", "warm cache rerun",
              t_warm * 1e3, t_seq / t_warm);
  std::printf("\n%zu variants; parallel and sequential sweeps are "
              "byte-identical (asserted in tests/test_dse_parallel.cpp)\n",
              variants);

  // -------------------------------------------------------------------
  // Campaign regime: many small jobs, job-by-job vs campaign-wide
  // -------------------------------------------------------------------
  std::size_t campaign_variants = 0;
  const dse::Campaign campaign = small_jobs_campaign(smoke, campaign_variants);
  // The spans being compared are sub-millisecond; enough iterations per
  // timed rep (and best-of over several reps) amortize pool wakeups and
  // scheduler noise so the gate is stable on shared CI runners.
  const int campaign_reps = smoke ? 5 : 7;
  const int campaign_iters = smoke ? 16 : 24;

  // Cache-less sessions on both sides: the comparison is pure
  // scheduling, not lookups (the jobs are all distinct anyway).
  dse::SessionOptions campaign_opts;
  campaign_opts.num_threads = 0;  // one worker per core, both schedules
  campaign_opts.enable_cache = false;
  dse::Session job_by_job(campaign_opts);
  dse::Session flattened(campaign_opts);
  job_by_job.add_device(*target::preset("stratix-v-gsd8"));
  job_by_job.add_device(*target::preset("fig15"));
  flattened.add_device(*target::preset("stratix-v-gsd8"));
  flattened.add_device(*target::preset("fig15"));

  std::printf("\n=== campaign scheduling: %zu small jobs (%zu variants "
              "total), %u hardware threads ===\n\n",
              campaign.jobs.size(), campaign_variants, cores);
  double speedup = 0;
  for (int attempt = 0;; ++attempt) {
    const double t_jobs = campaign_seconds(job_by_job, campaign,
                                           campaign_reps, campaign_iters,
                                           false);
    const double t_flat = campaign_seconds(flattened, campaign, campaign_reps,
                                           campaign_iters, true);
    if (t_jobs < 0 || t_flat < 0) {
      std::fprintf(stderr, "campaign regime failed to run\n");
      return 1;
    }
    speedup = t_jobs / t_flat;
    std::printf("%-28s %10.2f ms\n", "job-by-job (per-job workers)",
                t_jobs * 1e3 / campaign_iters);
    std::printf("%-28s %10.2f ms  (%.2fx speedup)\n",
                "campaign-wide (flattened)", t_flat * 1e3 / campaign_iters,
                speedup);
    // Re-measure (up to twice) before a gate verdict: the spans are
    // sub-millisecond, and on a shared 4-vCPU runner — where the
    // theoretical ceiling leaves the least margin over 2x — a transient
    // noisy-neighbor spike should not fail CI.
    if (!gate || cores < 4 || speedup >= 2.0 || attempt == 2) break;
    std::printf("(below the 2x gate — re-measuring)\n");
  }

  if (gate) {
    if (cores < 4) {
      std::printf("\ncampaign gate skipped: %u hardware threads (< 4), no "
                  "parallel headroom to gate on\n", cores);
    } else if (speedup < 2.0) {
      std::fprintf(stderr,
                   "\nFAIL: campaign-wide scheduling is only %.2fx faster "
                   "than job-by-job (gate requires >= 2x on >= 4 cores)\n",
                   speedup);
      return 1;
    } else {
      std::printf("\ncampaign gate passed: %.2fx >= 2x\n", speedup);
    }
  }

  // -------------------------------------------------------------------
  // Degraded-mode regime: a failing job may only cost itself
  // -------------------------------------------------------------------
  // Same small-jobs campaign plus one job whose lowerer always throws.
  // Containment means the fault burns one task slot and the survivors
  // run exactly as before — so the degraded campaign's wall clock must
  // stay within noise of the healthy one (the failing job contributes
  // essentially zero work). A containment bug that retried, serialized,
  // or tore down the pool on a fault would show up here as a wall-clock
  // cliff long before anyone read the per-job statuses.
  dse::Campaign degraded_campaign = campaign;
  {
    dse::Job bad;
    bad.workload = "always-throws";
    bad.nd = 17;
    bad.n = 4096;
    bad.device = "stratix-v-gsd8";
    bad.max_lanes = 16;
    bad.lower = std::make_shared<dse::FnLowerer>(
        [](const frontend::Variant&) -> ir::Module {
          throw std::runtime_error("bench: injected lowering failure");
        });
    degraded_campaign.jobs.push_back(std::move(bad));
  }

  dse::Session healthy_s(campaign_opts);
  dse::Session degraded_s(campaign_opts);
  for (dse::Session* s : {&healthy_s, &degraded_s}) {
    s->add_device(*target::preset("stratix-v-gsd8"));
    s->add_device(*target::preset("fig15"));
  }
  {  // sanity outside the timed region: exactly the one job degrades
    const auto probe = degraded_s.run(degraded_campaign);
    if (probe.degraded() != 1 || probe.jobs.back().status.state !=
                                    dse::JobState::Failed) {
      std::fprintf(stderr, "degraded regime: containment probe failed\n");
      return 1;
    }
  }

  std::printf("\n=== degraded mode: %zu jobs + 1 always-failing job ===\n\n",
              campaign.jobs.size());
  double overhead = 0;
  for (int attempt = 0;; ++attempt) {
    const double t_healthy = campaign_seconds(healthy_s, campaign,
                                              campaign_reps, campaign_iters,
                                              true);
    const double t_degraded = campaign_seconds(degraded_s, degraded_campaign,
                                               campaign_reps, campaign_iters,
                                               true);
    if (t_healthy < 0 || t_degraded < 0) {
      std::fprintf(stderr, "degraded regime failed to run\n");
      return 1;
    }
    overhead = t_degraded / t_healthy;
    std::printf("%-28s %10.2f ms\n", "healthy campaign",
                t_healthy * 1e3 / campaign_iters);
    std::printf("%-28s %10.2f ms  (%.2fx healthy)\n",
                "with one failing job", t_degraded * 1e3 / campaign_iters,
                overhead);
    if (!gate || overhead <= 1.5 || attempt == 2) break;
    std::printf("(above the 1.5x gate — re-measuring)\n");
  }

  if (gate) {
    if (overhead > 1.5) {
      std::fprintf(stderr,
                   "\nFAIL: one failing job inflated campaign wall clock "
                   "%.2fx (gate requires <= 1.5x: a contained fault may "
                   "only cost its own job)\n",
                   overhead);
      return 1;
    }
    std::printf("\ndegraded gate passed: %.2fx <= 1.5x\n", overhead);
  }
  return 0;
}
