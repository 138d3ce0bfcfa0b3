// The per-layer suite of the traced run. Every number is taken from
// outside: the driver times calls into each module's public functions on
// the workload seed's corpus. NOTES.md maps each metric to the end-to-end
// metric and workload it should move.

#include <malloc.h>
#include <sys/socket.h>
#include <unistd.h>

#include <filesystem>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "corpus.hpp"
#include "tytra/cost/report.hpp"
#include "tytra/dse/cache.hpp"
#include "tytra/dse/pool.hpp"
#include "tytra/ir/analysis.hpp"
#include "tytra/ir/lint.hpp"
#include "tytra/ir/printer.hpp"
#include "tytra/ir/structural_hash.hpp"
#include "tytra/kernels/file_workload.hpp"
#include "tytra/kernels/generator.hpp"
#include "tytra/kernels/registry.hpp"
#include "tytra/support/framing.hpp"
#include "tytra/support/json.hpp"

namespace perfbench {

namespace {

namespace frontend = tytra::frontend;
namespace framing = tytra::framing;
namespace kernels = tytra::kernels;

/// Median over `reps` repetitions of fn()'s wall time divided by `per`,
/// in seconds.
template <class F>
double timed(int reps, double per, F&& fn) {
  Samples s;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    fn();
    s.add((now_s() - t0) / per);
  }
  return s.median();
}

/// Keeps a result alive so the timed call cannot be optimized away.
volatile std::size_t g_sink = 0;
void keep(std::size_t v) { g_sink = g_sink + v; }

struct Task {
  const dse::Job* job;
  frontend::Variant variant;
};

/// A job's lowerer with its keys withheld, so every cache probe goes
/// through lowering and the structural digest.
dse::FnLowerer keyless(const dse::Job& job) {
  auto lower = job.lower;
  return dse::FnLowerer(
      [lower](const frontend::Variant& v) { return lower->lower(v); });
}

/// frontend, kernels, ir and cost: per call over the corpus.
void stage_metrics(const Options& opts, const Corpus& corpus,
                   const dse::Campaign& campaign,
                   const std::vector<const Task*>& sample,
                   const std::vector<Task>& tasks, Report& report) {
  const auto jobs = static_cast<double>(campaign.jobs.size());
  report.metric("frontend.enumerate_us", timed(5, jobs, [&] {
    for (const auto& job : campaign.jobs) {
      keep(frontend::enumerate_variants(job.n, kMaxLanes).size());
    }
  }) * 1e6, "us");
  report.metric("kernels.key_us",
                timed(5, static_cast<double>(tasks.size()), [&] {
    for (const auto& t : tasks) keep(t.job->lower->key(t.variant).has_value());
  }) * 1e6, "us");

  const auto per = static_cast<double>(sample.size());
  std::vector<ir::Module> mods;
  std::vector<ir::AnalysisSummary> sums;
  for (const Task* t : sample) {
    mods.push_back(t->job->lower->lower(t->variant));
    sums.push_back(ir::summarize(mods.back()));
  }
  report.metric("ir.summarize_us", timed(3, per, [&] {
    for (const auto& m : mods) keep(ir::summarize(m).params.knl);
  }) * 1e6, "us");
  report.metric("ir.digest_us", timed(3, per, [&] {
    for (const auto& m : mods) keep(ir::structural_digest(m).key);
  }) * 1e6, "us");
  std::size_t print_bytes = 0;
  report.metric("ir.print_us", timed(3, per, [&] {
    print_bytes = 0;
    for (const auto& m : mods) print_bytes += ir::print_module(m).size();
  }) * 1e6, "us");
  report.metric("ir.print_bytes", print_bytes / per, "bytes");
  report.metric("ir.lint_us", timed(3, per, [&] {
    for (const auto& m : mods) keep(ir::lint::run_lint(m).findings.size());
  }) * 1e6, "us");
  report.metric("cost.cost_design_us", timed(3, per, [&] {
    for (std::size_t i = 0; i < mods.size(); ++i) {
      keep(cost::cost_design(mods[i], *sample[i]->job->db, sums[i]).valid);
    }
  }) * 1e6, "us");

  const auto seeds = design_seeds(opts.seed, kGenDesigns);
  report.metric("kernels.generate_us",
                timed(3, static_cast<double>(seeds.size()), [&] {
    for (const auto s : seeds) {
      keep(kernels::generate_kernel(s).functions.size());
    }
  }) * 1e6, "us");
  std::vector<std::string> texts;
  for (std::size_t i = 0; i < 40; ++i) {
    texts.push_back(ir::print_module(*corpus.gen_modules[i]));
  }
  report.metric("kernels.file_load_ms",
                timed(3, static_cast<double>(texts.size()), [&] {
    for (const auto& t : texts) keep(kernels::load_file_workload(t).ok());
  }) * 1e3, "ms");
  report.metric("cost.calibrate_ms",
                timed(3, static_cast<double>(kPresets.size()), [&] {
    for (const char* p : kPresets) {
      const auto db = cost::DeviceCostDb::calibrate(*target::preset(p));
      keep(db.device().name.size());
    }
  }) * 1e3, "ms");
}

/// dse.cache: one probe per call on this thread, so the heap growth is
/// all in the main malloc arena that mallinfo2 reports.
void cache_metrics(const std::vector<const Task*>& sample, Report& report) {
  const std::size_t heap0 = mallinfo2().uordblks;
  dse::CostCache cache;
  std::vector<dse::FnLowerer> plain;
  for (const Task* t : sample) plain.push_back(keyless(*t->job));
  auto probe = [&](bool keyed) {
    for (std::size_t i = 0; i < sample.size(); ++i) {
      const Task& t = *sample[i];
      const dse::Lowerer& lower = keyed ? *t.job->lower : plain[i];
      keep(cache.cost(t.variant, lower, *t.job->db).valid);
    }
  };
  const auto per = static_cast<double>(sample.size());
  report.metric("dse.cache.miss_us", timed(1, per, [&] { probe(true); }) * 1e6,
                "us");
  const auto entries =
      static_cast<double>(cache.size() + cache.variant_size());
  report.metric("dse.cache.bytes_per_entry",
                static_cast<double>(mallinfo2().uordblks - heap0) / entries,
                "bytes");
  report.metric("dse.cache.variant_hit_us",
                timed(3, per, [&] { probe(true); }) * 1e6, "us");
  report.metric("dse.cache.structural_hit_us",
                timed(3, per, [&] { probe(false); }) * 1e6, "us");
}

/// Whole cold campaigns: cache on and off at one thread, cache on at
/// nproc threads, each with a forwarding lowerer where lowering is timed.
void campaign_metrics(const dse::Campaign& campaign, unsigned nproc,
                      Report& report) {
  Samples on1, off1, onn, lower_us, busy;
  dse::CacheStats stats;
  std::uint64_t lower_calls = 0;
  std::size_t evals = 0;
  for (int rep = 0; rep < 3; ++rep) {
    {
      LowerLog log;
      const dse::Campaign wrapped = wrap_lowerers(campaign, &log);
      dse::SessionOptions so;
      so.num_threads = 1;
      dse::Session s(so);
      const double t0 = now_s();
      const dse::CampaignResult r = s.run(wrapped);
      on1.add(now_s() - t0);
      stats = r.cache_stats;
      evals = answered(r);
      lower_calls = log.calls();
      lower_us.add(log.seconds() / static_cast<double>(log.calls()) * 1e6);
    }
    {
      dse::Session s(reference_options());
      const double t0 = now_s();
      keep(s.run(campaign).jobs.size());
      off1.add(now_s() - t0);
    }
    {
      LowerLog log;
      const dse::Campaign wrapped = wrap_lowerers(campaign, &log);
      dse::Session s;
      const double t0 = now_s();
      keep(s.run(wrapped).jobs.size());
      const double wall = now_s() - t0;
      onn.add(wall);
      busy.add(log.seconds() / (nproc * wall) * 100);
    }
  }
  report.metric("kernels.lower_us", lower_us.median(), "us");
  report.metric("kernels.lower_calls", static_cast<double>(lower_calls),
                "count");
  report.metric("dse.cache.misses", static_cast<double>(stats.misses), "count");
  report.metric("dse.cache.variant_hits",
                static_cast<double>(stats.variant_hits), "count");
  report.metric("dse.cache.structural_hits",
                static_cast<double>(stats.hits - stats.variant_hits), "count");
  report.metric("dse.cache.cold_penalty", on1.median() / off1.median(), "x");
  report.metric("dse.pool.speedup", on1.median() / onn.median(), "x");
  report.metric("dse.pool.busy_pct", busy.median(), "%");
  // What the uncached engine adds per evaluation on top of its stages
  // (lower, then cost_design, which summarizes): scheduling and merging.
  const double stage_us = report.value("kernels.lower_us") +
                          report.value("ir.summarize_us") +
                          report.value("cost.cost_design_us");
  report.metric("dse.session.overhead_us",
                off1.median() / static_cast<double>(evals) * 1e6 - stage_us,
                "us");
  report.note("cold campaign of " + std::to_string(evals) +
              " evaluations: 1 thread " + std::to_string(on1.median() * 1e3) +
              " ms cached, " + std::to_string(off1.median() * 1e3) +
              " ms uncached; " + std::to_string(nproc) + " threads " +
              std::to_string(onn.median() * 1e3) + " ms cached");

  dse::ThreadPool pool(nproc > 1 ? nproc - 1 : 1);
  const std::uint32_t participants = pool.worker_count() + 1;
  report.metric("dse.pool.batch_us", timed(3, 2000, [&] {
    for (int i = 0; i < 2000; ++i) {
      pool.run_batch(participants, [](std::uint32_t w) { keep(w); });
    }
  }) * 1e6, "us");
}

/// A warm session: run/explore/tune, skyline, renders and snapshots.
void session_metrics(const Options& opts, const dse::Campaign& campaign,
                     dse::Session& warm, const dse::Job& sor,
                     Report& report) {
  const dse::CampaignResult cold = warm.run(campaign);
  const dse::DseResult sweep = warm.explore(sor);
  dse::CampaignResult again;
  report.metric("dse.session.run_ms",
                timed(3, 1, [&] { again = warm.run(campaign); }) * 1e3, "ms");
  report.metric("dse.session.explore_us", timed(50, 1, [&] {
    keep(warm.explore(sor).entries.size());
  }) * 1e6, "us");
  report.metric("dse.session.tune_us", timed(50, 1, [&] {
    keep(warm.tune(sor).trajectory.size());
  }) * 1e6, "us");
  std::vector<dse::ParetoPoint> candidates;
  for (const auto& jr : cold.jobs) {
    candidates.insert(candidates.end(), jr.result.pareto.begin(),
                      jr.result.pareto.end());
  }
  report.metric("dse.session.skyline_us", timed(50, 1, [&] {
    keep(dse::detail::skyline_keep(candidates).size());
  }) * 1e6, "us");
  report.metric("dse.render.campaign_json_us", timed(10, 1, [&] {
    keep(dse::format_campaign_json(again).size());
  }) * 1e6, "us");
  report.metric("dse.render.sweep_json_us", timed(200, 1, [&] {
    keep(dse::format_sweep_json(sweep).size());
  }) * 1e6, "us");
  report.metric("dse.render.campaign_text_us", timed(10, 1, [&] {
    keep(render_campaign(again).size());
  }) * 1e6, "us");

  const std::string snap = opts.work_dir + "/layers.snap";
  std::uint64_t bytes = 0;
  report.metric("dse.snapshot.save_ms", timed(3, 1, [&] {
    auto written = warm.save_snapshot(snap);
    bytes = written.ok() ? written.value() : 0;
  }) * 1e3, "ms");
  report.metric("dse.snapshot.bytes", static_cast<double>(bytes), "bytes");
  report.metric("dse.snapshot.load_ms", timed(3, 1, [&] {
    dse::Session fresh;
    keep(fresh.load_snapshot(snap).ok());
  }) * 1e3, "ms");
}

/// tytra-cc processes: the exec floor and the snapshot warm start.
void process_metrics(const Options& opts, Report& report) {
  auto cc = [&](std::vector<std::string> args) {
    args.insert(args.begin(), opts.cc());
    return run_process(args, opts.work_dir);
  };
  report.metric("tools.cc.exec_floor_ms", timed(10, 1, [&] {
    keep(cc({"list", "--names"}).out.size());
  }) * 1e3, "ms");
  auto args = cli_campaign_args();
  args.insert(args.end(), {"--snapshot", "layers-pristine.snap"});
  if (cc(args).status != 0) {
    throw std::runtime_error("tytra-cc campaign failed");
  }
  args.back() = "layers-warm.snap";
  Samples warm_ms, cold_ms;
  for (int i = 0; i < 5; ++i) {
    std::filesystem::copy_file(
        opts.work_dir + "/layers-pristine.snap",
        opts.work_dir + "/layers-warm.snap",
        std::filesystem::copy_options::overwrite_existing);
    warm_ms.add(cc(args).seconds);
    cold_ms.add(cc(cli_campaign_args()).seconds);
  }
  report.metric("dse.snapshot.warm_vs_cold",
                warm_ms.median() / cold_ms.median(), "x");
}

/// The daemon and the wire: a child tytra-dsed, then the frame layer
/// alone over a socketpair at the same response size.
void server_metrics(const Options& opts, dse::Session& warm,
                    const dse::Job& sor, Report& report) {
  std::string payload;
  {
    Daemon daemon(opts, "layers");
    const int fd = daemon.connect();
    const std::string explore =
        R"({"cmd": "explore", "kernel": "sor", "nd": 64, "pareto": true})";
    payload = round_trip(fd, explore);  // also warms the daemon
    report.metric("dse.server.ping_us", timed(200, 1, [&] {
      keep(round_trip(fd, R"({"cmd": "ping"})").size());
    }) * 1e6, "us");
    const double daemon_us = timed(100, 1, [&] {
      keep(round_trip(fd, explore).size());
    }) * 1e6;
    const double direct_us = timed(100, 1, [&] {
      const dse::DseResult r = warm.explore(sor);
      keep(render_explore_cli("sor", sor.device, r, true).size());
    }) * 1e6;
    report.metric("dse.server.overhead_us", daemon_us - direct_us, "us");
    ::close(fd);
    daemon.stop();
  }
  report.metric("support.json.frame_bytes", static_cast<double>(payload.size()),
                "bytes");
  report.metric("support.json.parse_us", timed(200, 1, [&] {
    keep(tytra::json::parse(payload).ok());
  }) * 1e6, "us");

  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
    throw std::runtime_error("socketpair failed");
  }
  std::thread echo([fd = sv[1]] {
    std::string buf;
    std::string err;
    while (framing::read_frame(fd, buf, err) == framing::ReadStatus::Frame) {
      if (!framing::write_frame(fd, buf, err)) break;
    }
  });
  std::string back;
  std::string err;
  report.metric("support.framing.rt_us", timed(200, 1, [&] {
    framing::write_frame(sv[0], payload, err);
    framing::read_frame(sv[0], back, err);
  }) * 1e6, "us");
  ::shutdown(sv[0], SHUT_RDWR);
  echo.join();
  ::close(sv[0]);
  ::close(sv[1]);
}

}  // namespace

void run_layers(const Options& opts, Report& report) {
  const Corpus corpus = build_corpus(opts.seed, opts.repo_dir);
  const dse::Campaign campaign = corpus.campaign();
  const auto nproc = std::max(1u, std::thread::hardware_concurrency());

  std::vector<Task> tasks;
  for (const auto& job : campaign.jobs) {
    for (auto& v : frontend::enumerate_variants(job.n, kMaxLanes)) {
      tasks.push_back({&job, std::move(v)});
    }
  }
  // Every fourth design: keeps the lowered sample's memory small.
  std::vector<const Task*> sample;
  for (std::size_t i = 0; i < tasks.size(); i += 4) sample.push_back(&tasks[i]);

  stage_metrics(opts, corpus, campaign, sample, tasks, report);
  cache_metrics(sample, report);
  campaign_metrics(campaign, nproc, report);

  auto sor_job = kernels::Registry::instance().make_job("sor", 64);
  if (!sor_job.ok()) throw std::runtime_error(sor_job.error_message());
  dse::Job sor = std::move(sor_job).take();
  sor.db = &corpus.dbs.front();
  sor.device = sor.db->device().name;
  dse::Session warm;
  session_metrics(opts, campaign, warm, sor, report);
  process_metrics(opts, report);
  server_metrics(opts, warm, sor, report);
}

}  // namespace perfbench
