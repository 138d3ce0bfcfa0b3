// cold_sweep: closed loop, one caller. Every op is a fresh default
// Session (cache on, pool at nproc) running one campaign over the whole
// corpus, so every design misses and lowering, summarize, cost, digest,
// the cache's insert path and the pool do the work.

#include "common.hpp"
#include "corpus.hpp"

namespace perfbench {

void run_cold_sweep(const Options& opts, Report& report) {
  const Corpus corpus = build_corpus(opts.seed, opts.repo_dir);
  const dse::Campaign campaign = corpus.campaign();
  {
    dse::Session warm_up;  // page faults, lazy statics, the first pool
    warm_up.run(campaign);
  }
  if (opts.setup_only) return setup_done(opts, report);

  // The reference: the same campaign uncached on one thread.
  dse::Session ref_session(reference_options());
  const dse::CampaignResult ref = ref_session.run(campaign);
  const std::string ref_text = normalize(render_campaign(ref));
  check_digest(opts, report, opts.workload, fnv1a(ref_text), true);
  check_digest(opts, report, "builtin", builtin_references(corpus).digest(),
               false);
  double worst_pct = 0;
  std::string why;
  const std::size_t sim_checked = sim_band_check(ref, &worst_pct, &why);
  report.invariant(why.empty(), "model vs cycle sim outside 12%: " + why);
  report.note("sim band: " + std::to_string(sim_checked) +
              " merged-Pareto designs, worst " + std::to_string(worst_pct) +
              "%");
  report.note("corpus: " + std::to_string(campaign.jobs.size()) + " jobs, " +
              std::to_string(answered(ref)) + " evaluations per op");

  Tracer tracer;
  LowerLog lower_log;
  const dse::Campaign wrapped = wrap_lowerers(campaign, &lower_log);
  Samples op_ms;
  Samples traced_ms;
  Samples gap_ms;
  std::size_t designs = 0;
  double busy_s = 0;
  double last_end = now_s();
  const double t_end = last_end + opts.seconds;
  for (int op = 0; op < 3 || now_s() < t_end; ++op) {
    const bool traced = opts.trace && op % 2 == 0;
    Tracer::install(traced ? &tracer : nullptr);
    const double t0 = now_s();
    std::string text;
    std::size_t n = 0;
    {
      Span span("bench.op");
      set_root_span(span.id());
      dse::Session session;
      dse::CampaignResult r;
      {
        Span s("dse.session.run");
        r = session.run(traced ? wrapped : campaign);
      }
      {
        Span s("dse.render");
        text = render_campaign(r);
      }
      n = answered(r);
    }
    const double t1 = now_s();
    {
      Span s("bench.check");
      if (opts.corrupt && op == 0) text[text.size() / 2] ^= 1;
      report.check(normalize(text) == ref_text,
                   "cold_sweep op " + std::to_string(op));
    }
    Tracer::install(nullptr);
    gap_ms.add((t0 - last_end) * 1e3);
    last_end = now_s();
    (traced ? traced_ms : op_ms).add((t1 - t0) * 1e3);
    if (!traced) {
      designs += n;
      busy_s += t1 - t0;
    }
  }

  if (opts.trace) {
    trace_metrics(opts, report, tracer, traced_ms, op_ms);
    report.metric("bench.gen_lag_ms",
                  gap_ms.quantile(tail_level(gap_ms.size())), "ms");
    return;
  }
  report.metric("setup_s", fresh_setup_seconds(opts, report), "s");
  latency_metrics(report, op_ms);
  report.metric("designs_per_s", designs / busy_s, "1/s");
  report.metric("max_rps_slo", static_cast<double>(op_ms.size()) / busy_s,
                "1/s");
  report.metric("peak_rss_mb", self_maxrss_mb(), "MB");
}

}  // namespace perfbench
