// cli_snapshot: closed loop, one tytra-cc process at a time — what
// scripts and CI pay per process: exec, registry, calibration, `.tir`
// parse/verify/lint, and snapshot load/save with the engine mostly warm.
// One op is one script cycle of four processes: the built-in campaign
// warm from a pristine snapshot (restored before the process, outside the
// timing), the same campaign cold, `explore sor --nd 64 --snapshot`, and
// a campaign over generator designs written as `.tir` files at set-up.

#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "common.hpp"
#include "corpus.hpp"
#include "tytra/ir/printer.hpp"
#include "tytra/kernels/file_workload.hpp"
#include "tytra/kernels/generator.hpp"
#include "tytra/kernels/registry.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace kernels = tytra::kernels;

/// Generator designs in the `.tir` campaign: a slice of the corpus, so
/// every process of the cycle costs about the same and the snapshot path
/// stays visible in the cycle time.
constexpr std::size_t kCliDesigns = 40;

struct Step {
  const char* name;
  std::vector<std::string> argv;
  const char* restore;  ///< snapshot to restore from the pristine copy
  std::string ref;
  std::size_t variants{0};
  Samples ms;
};

/// Writes the generator slice; returns the paths relative to the work
/// directory, which is where the tools run.
std::vector<std::string> write_designs(const Options& opts) {
  fs::create_directories(opts.work_dir + "/gen");
  std::vector<std::string> paths;
  const auto seeds = design_seeds(opts.seed, kGenDesigns);
  for (std::size_t i = 0; i < kCliDesigns; ++i) {
    char name[32];
    std::snprintf(name, sizeof name, "gen/g%03zu.tir", i);
    std::ofstream(opts.work_dir + "/" + name)
        << tytra::ir::print_module(kernels::generate_kernel(seeds[i]));
    paths.emplace_back(name);
  }
  return paths;
}

ProcResult run_cc(const Options& opts, std::vector<std::string> args) {
  args.insert(args.begin(), opts.cc());
  return run_process(args, opts.work_dir);
}

}  // namespace

void run_cli_snapshot(const Options& opts, Report& report) {
  const std::string pristine = "pristine.snap";
  fs::remove_all(opts.work_dir + "/gen");
  fs::remove(opts.work_dir + "/" + pristine);
  const std::vector<std::string> designs = write_designs(opts);
  auto setup_args = cli_campaign_args();
  setup_args.insert(setup_args.end(), {"--snapshot", pristine});
  if (run_cc(opts, setup_args).status != 0) {
    throw std::runtime_error("tytra-cc could not write the snapshot");
  }
  if (opts.setup_only) return setup_done(opts, report);

  std::vector<Step> steps;
  auto warm = cli_campaign_args();
  warm.insert(warm.end(), {"--snapshot", "warm.snap"});
  steps.push_back({"warm campaign", warm, "warm.snap", {}, 0, {}});
  steps.push_back({"cold campaign", cli_campaign_args(), nullptr, {}, 0, {}});
  steps.push_back({"explore sor --snapshot",
                   {"explore", "sor", "--nd", "64", "--snapshot",
                    "explore.snap"},
                   "explore.snap", {}, 0, {}});
  std::vector<std::string> ir_args = {"campaign"};
  for (const auto& d : designs) ir_args.insert(ir_args.end(), {"--ir", d});
  ir_args.emplace_back("--pareto");
  steps.push_back({"campaign --ir", ir_args, nullptr, {}, 0, {}});

  // References: the same work on the uncached one-thread engine.
  {
    const Corpus corpus = build_corpus(opts.seed, opts.repo_dir);
    const BuiltinRefs builtin = builtin_references(corpus);
    check_digest(opts, report, "builtin", builtin.digest(), false);
    steps[0].ref = steps[1].ref = builtin.campaign;
    steps[0].variants = steps[1].variants = builtin.campaign_variants;
    steps[2].ref = builtin.explore;
    steps[2].variants = builtin.explore_variants;

    dse::Session ref(reference_options());
    dse::Campaign files;
    auto& reg = kernels::Registry::instance();
    for (const auto& d : designs) {
      std::ifstream in(opts.work_dir + "/" + d);
      std::string text{std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>()};
      const kernels::WorkloadInfo* info = reg.find(d);
      if (info == nullptr) {
        auto added = kernels::register_file_workload(reg, d, d, text);
        if (!added.ok()) throw std::runtime_error(added.error_message());
        info = added.value();
      }
      auto fj = reg.make_job(d, info->default_nd);
      dse::Job j = std::move(fj).take();
      j.device = corpus.dbs.front().device().name;
      j.db = &corpus.dbs.front();
      files.jobs.push_back(std::move(j));
    }
    const dse::CampaignResult f = ref.run(files);
    steps[3].ref = normalize(render_campaign_cli(f, designs.size(), 1));
    steps[3].variants = answered(f);
  }
  std::uint64_t digest = fnv1a("");
  for (std::size_t i = 1; i < steps.size(); ++i) {
    digest = fnv1a(steps[i].ref, digest);
  }
  check_digest(opts, report, opts.workload, digest, true);

  Tracer tracer;
  Samples cycle_ms;
  Samples traced_ms;
  Samples gap_ms;
  std::size_t designs_answered = 0;
  double busy_s = 0;
  double peak_mb = 0;
  double last_end = 0;
  const double t_end = now_s() + opts.seconds;
  for (int cycle = -1; cycle < 3 || now_s() < t_end; ++cycle) {
    const bool traced = opts.trace && cycle % 2 == 0;
    Tracer::install(traced ? &tracer : nullptr);
    const double c0 = now_s();
    double cycle_s = 0;
    {
      Span op("bench.op");
      for (auto& step : steps) {
        if (step.restore != nullptr) {
          Span s("bench.restore");
          fs::copy_file(opts.work_dir + "/" + pristine,
                        opts.work_dir + "/" + step.restore,
                        fs::copy_options::overwrite_existing);
        }
        ProcResult r;
        {
          Span s("tools.cc.process");
          r = run_cc(opts, step.argv);
        }
        if (cycle < 0) continue;  // warm-up cycle: page cache, binaries
        Span s("bench.check");
        if (opts.corrupt && report.attempted == 0) r.out[r.out.size() / 2] ^= 1;
        report.check(r.status == 0 && normalize(r.out) == step.ref,
                     std::string("cli_snapshot ") + step.name);
        step.ms.add(r.seconds * 1e3);
        cycle_s += r.seconds;
        peak_mb = std::max(peak_mb, r.maxrss_mb);
        if (!traced) designs_answered += step.variants;
      }
    }
    Tracer::install(nullptr);
    if (cycle < 0) {
      last_end = now_s();
      continue;
    }
    gap_ms.add((c0 - last_end) * 1e3);
    last_end = now_s();
    (traced ? traced_ms : cycle_ms).add(cycle_s * 1e3);
    if (!traced) busy_s += cycle_s;
  }

  for (const auto& step : steps) report.spread(step.name, step.ms, "ms");
  report.note("warm-from-snapshot over cold campaign: " +
              std::to_string(steps[0].ms.median() / steps[1].ms.median()));
  if (opts.trace) {
    trace_metrics(opts, report, tracer, traced_ms, cycle_ms);
    report.metric("bench.gen_lag_ms",
                  gap_ms.quantile(tail_level(gap_ms.size())), "ms");
    return;
  }
  report.metric("setup_s", fresh_setup_seconds(opts, report), "s");
  latency_metrics(report, cycle_ms);
  report.metric("designs_per_s", designs_answered / busy_s, "1/s");
  report.metric("max_rps_slo", static_cast<double>(cycle_ms.size()) / busy_s,
                "1/s");
  report.metric("peak_rss_mb", peak_mb, "MB");
}

}  // namespace perfbench
