// Every dse renderer: the sweep, frontier, tune and campaign tables and
// their JSON counterparts. Each builds its output by appending to one
// std::string; JSON numbers and strings go through json::append_number and
// json::append_escaped, so the bytes of every document are decided there.

#include <algorithm>
#include <string>
#include <string_view>

#include "tytra/dse/session.hpp"
#include "tytra/support/json.hpp"
#include "tytra/support/strings.hpp"

namespace tytra::dse {

namespace {

std::string job_label(const Job& job) {
  return job.workload.empty() ? std::string("<custom>") : job.workload;
}

std::string device_label(const Job& job) {
  if (!job.device.empty()) return job.device;
  if (job.db) return job.db->device().name;
  return "<default>";
}

// JSON pieces: `text` is the literal before the value.

void num(std::string& out, std::string_view text, double v) {
  out += text;
  json::append_number(out, v);
}

void count(std::string& out, std::string_view text, std::uint64_t v) {
  out += text;
  out += std::to_string(v);
}

void esc(std::string& out, std::string_view text, std::string_view s) {
  out += text;
  json::append_escaped(out, s);
}

void json_cache_stats(std::string& out, const CacheStats& s) {
  count(out, "{\"hits\": ", s.hits);
  count(out, ", \"misses\": ", s.misses);
  count(out, ", \"variant_hits\": ", s.variant_hits);
  out += '}';
}

void json_entry(std::string& out, const DseEntry& e) {
  const auto& u = e.report.resources.util;
  count(out, "{\"lanes\": ", e.report.params.knl);
  out += e.report.valid ? ", \"valid\": true" : ", \"valid\": false";
  num(out, ", \"ekit\": ", e.report.throughput.ekit);
  esc(out, ", \"limiting\": \"", cost::wall_name(e.report.throughput.limiting));
  num(out, "\", \"util\": {\"regs\": ", u.regs);
  num(out, ", \"aluts\": ", u.aluts);
  num(out, ", \"bram\": ", u.bram);
  num(out, ", \"dsps\": ", u.dsps);
  num(out, "}, \"bw_share\": ", bandwidth_share(e.report));
  out += '}';
}

/// A frontier point's fields and the closing brace; the caller opens the
/// object (the campaign view prefixes its own fields).
void json_pareto_point(std::string& out, const ParetoPoint& p,
                       const DseEntry& e) {
  count(out, "\"index\": ", p.index);
  count(out, ", \"lanes\": ", e.report.params.knl);
  num(out, ", \"ekit\": ", p.ekit);
  num(out, ", \"util_max\": ", p.util_max);
  num(out, ", \"bw_share\": ", p.bw_share);
  out += '}';
}

void json_sweep(std::string& out, const DseResult& r,
                std::string_view indent) {
  const std::string nl = std::string(1, '\n').append(indent);
  count(out, "{" + nl + "  \"variants\": ", r.entries.size());
  num(out, "," + nl + "  \"explore_seconds\": ", r.explore_seconds);
  out += "," + nl + "  \"cache\": ";
  json_cache_stats(out, r.cache_stats);
  out += "," + nl + "  \"best\": ";
  out += r.best ? std::to_string(*r.best) : "null";
  out += "," + nl + "  \"entries\": [";
  for (std::size_t i = 0; i < r.entries.size(); ++i) {
    out += (i ? "," : "") + nl + "    ";
    json_entry(out, r.entries[i]);
  }
  out += nl + "  ]," + nl + "  \"pareto\": [";
  for (std::size_t i = 0; i < r.pareto.size(); ++i) {
    out += (i ? "," : "") + nl + "    {";
    json_pareto_point(out, r.pareto[i], r.entries[r.pareto[i].index]);
  }
  out += nl + "  ]" + nl + "}";
}

}  // namespace

std::string format_sweep(const DseResult& result) {
  std::string out =
      " lanes   Regs%  Aluts%   BRAM%   DSPs%      EKIT/s  limiting\n";
  for (const auto& e : result.entries) {
    const auto& u = e.report.resources.util;
    out += pad_left(std::to_string(e.report.params.knl), 6);
    out += pad_left(format_fixed(u.regs, 1), 8);
    out += pad_left(format_fixed(u.aluts, 1), 8);
    out += pad_left(format_fixed(u.bram, 1), 8);
    out += pad_left(format_fixed(u.dsps, 1), 8);
    out += pad_left(format_fixed(e.report.throughput.ekit, 1), 12);
    out += "  ";
    out += cost::wall_name(e.report.throughput.limiting);
    out += e.report.valid ? "\n" : "  [INVALID: exceeds device]\n";
  }
  if (result.best) {
    out += "best: " + result.entries[*result.best].variant.describe() + "\n";
  }
  return out;
}

std::string format_pareto(const DseResult& result) {
  std::string out = " lanes      EKIT/s   util%  bw-share  limiting\n";
  for (const auto& p : result.pareto) {
    const auto& e = result.entries[p.index];
    out += pad_left(std::to_string(e.report.params.knl), 6);
    out += pad_left(format_fixed(p.ekit, 1), 12);
    out += pad_left(format_fixed(p.util_max, 1), 8);
    out += pad_left(format_fixed(p.bw_share, 3), 10);
    out += "  ";
    out += cost::wall_name(e.report.throughput.limiting);
    out += '\n';
  }
  out += "frontier: " + std::to_string(result.pareto.size()) + " of " +
         std::to_string(result.entries.size()) + " designs\n";
  return out;
}

std::string format_tune(const TuneResult& result) {
  std::string out;
  for (std::size_t i = 0; i < result.trajectory.size(); ++i) {
    const auto& s = result.trajectory[i];
    out += "step " + std::to_string(i) + ": " + s.variant.describe() + "\n";
    out += "  " + s.action + "\n";
    out += "  EKIT " + format_general(s.report.throughput.ekit, 6) +
           "/s, limiting ";
    out += cost::wall_name(s.report.throughput.limiting);
    out += s.report.valid ? "\n" : " [does not fit]\n";
  }
  out += result.verdict + "\n";
  // No best when no step is valid (see TuneResult::best).
  if (result.best) {
    out += "best: step " + std::to_string(*result.best) + " (" +
           result.trajectory[*result.best].variant.describe() + ")\n";
  }
  return out;
}

std::string format_campaign(const CampaignResult& result) {
  std::string out =
      "workload    nd      device             variants  best      EKIT/s  "
      "limiting\n";
  for (const auto& jr : result.jobs) {
    out += pad_right(job_label(jr.job), 12);
    out += pad_right(jr.job.nd ? std::to_string(jr.job.nd) : "-", 8);
    out += pad_right(device_label(jr.job), 18);
    out += pad_left(std::to_string(jr.result.entries.size()), 9);
    if (!jr.status.ok()) {
      // The failure domain's row: status (and its reason) in place of
      // the best-design columns.
      out += pad_left("-", 6) + pad_left("-", 12) + "  ";
      out += job_state_name(jr.status.state);
      if (!jr.status.error.empty()) out += ": " + jr.status.error;
    } else if (const DseEntry* best = jr.result.best_entry()) {
      out += pad_left(std::to_string(best->report.params.knl), 6);
      out += pad_left(format_fixed(best->report.throughput.ekit, 1), 12);
      out += "  ";
      out += cost::wall_name(best->report.throughput.limiting);
    } else {
      out += pad_left("-", 6) + pad_left("-", 12) + "  no valid design";
    }
    out += '\n';
  }
  std::uint64_t variants = 0;
  for (const auto& jr : result.jobs) variants += jr.result.entries.size();
  out += "campaign: " + std::to_string(result.jobs.size()) + " jobs, " +
         std::to_string(variants) + " evaluations; cache: " +
         std::to_string(result.cache_stats.hits) + " hits (" +
         std::to_string(result.cache_stats.variant_hits) +
         " pre-lowering) / " + std::to_string(result.cache_stats.misses) +
         " misses\n";
  // Degradation summary only when something degraded — a fault-free
  // campaign's table is byte-identical to the pre-failure-model output.
  if (const std::size_t degraded = result.degraded(); degraded > 0) {
    const auto in_state = [&](JobState state) {
      return std::to_string(std::count_if(
          result.jobs.begin(), result.jobs.end(),
          [&](const auto& jr) { return jr.status.state == state; }));
    };
    out += "degraded: " + std::to_string(degraded) + " of " +
           std::to_string(result.jobs.size()) +
           " jobs (failed=" + in_state(JobState::Failed) +
           " timed_out=" + in_state(JobState::TimedOut) +
           " cancelled=" + in_state(JobState::Cancelled) + ")\n";
  }
  return out;
}

std::string format_campaign_pareto(const CampaignResult& result) {
  std::string out =
      "workload    device             lanes      EKIT/s   util%  bw-share  "
      "limiting\n";
  for (const auto& p : result.pareto) {
    const auto& jr = result.jobs[p.job];
    const auto& e = result.entry(p);
    out += pad_right(job_label(jr.job), 12);
    out += pad_right(device_label(jr.job), 18);
    out += pad_left(std::to_string(e.report.params.knl), 6);
    out += pad_left(format_fixed(p.point.ekit, 1), 12);
    out += pad_left(format_fixed(p.point.util_max, 1), 8);
    out += pad_left(format_fixed(p.point.bw_share, 3), 10);
    out += "  ";
    out += cost::wall_name(e.report.throughput.limiting);
    out += '\n';
  }
  std::size_t frontier_in = 0;
  for (const auto& jr : result.jobs) frontier_in += jr.result.pareto.size();
  out += "merged frontier: " + std::to_string(result.pareto.size()) + " of " +
         std::to_string(frontier_in) + " per-job frontier points\n";
  return out;
}

std::string format_sweep_json(const DseResult& result) {
  std::string out;
  json_sweep(out, result, "");
  out += '\n';
  return out;
}

std::string format_tune_json(const TuneResult& result) {
  std::string out = "{\n  \"steps\": [";
  for (std::size_t i = 0; i < result.trajectory.size(); ++i) {
    const auto& s = result.trajectory[i];
    count(out, i ? ",\n    {\"step\": " : "\n    {\"step\": ", i);
    count(out, ", \"lanes\": ", s.report.params.knl);
    out += s.report.valid ? ", \"valid\": true" : ", \"valid\": false";
    num(out, ", \"ekit\": ", s.report.throughput.ekit);
    esc(out, ", \"limiting\": \"",
        cost::wall_name(s.report.throughput.limiting));
    esc(out, "\", \"action\": \"", s.action);
    out += "\"}";
  }
  // null when no step is valid, never an index of a design that does not fit.
  out += "\n  ],\n  \"best\": ";
  out += result.best ? std::to_string(*result.best) : "null";
  esc(out, ",\n  \"verdict\": \"", result.verdict);
  out += "\"\n}\n";
  return out;
}

std::string format_campaign_json(const CampaignResult& result) {
  std::string out = "{\n  \"campaign\": {\n    \"jobs\": [";
  for (std::size_t j = 0; j < result.jobs.size(); ++j) {
    const auto& jr = result.jobs[j];
    esc(out, j ? ",\n      {\"workload\": \"" : "\n      {\"workload\": \"",
        job_label(jr.job));
    count(out, "\", \"nd\": ", jr.job.nd);
    count(out, ", \"n\": ", jr.job.n);
    esc(out, ", \"device\": \"", device_label(jr.job));
    esc(out, "\", \"status\": \"", job_state_name(jr.status.state));
    out += '"';
    if (!jr.status.ok()) {
      esc(out, ", \"error\": \"", jr.status.error);
      count(out, "\", \"evaluated\": ", jr.status.evaluated);
      count(out, ", \"faults\": ", jr.status.faults);
      count(out, ", \"skipped\": ", jr.status.skipped);
    }
    out += ", \"sweep\": ";
    json_sweep(out, jr.result, "      ");
    out += '}';
  }
  out += "\n    ],\n    \"pareto\": [";
  for (std::size_t i = 0; i < result.pareto.size(); ++i) {
    const auto& p = result.pareto[i];
    const auto& jr = result.jobs[p.job];
    count(out, i ? ",\n      {\"job\": " : "\n      {\"job\": ", p.job);
    esc(out, ", \"workload\": \"", job_label(jr.job));
    esc(out, "\", \"device\": \"", device_label(jr.job));
    out += "\", ";
    json_pareto_point(out, p.point, result.entry(p));
  }
  out += "\n    ],\n    \"cache\": ";
  json_cache_stats(out, result.cache_stats);
  count(out, ",\n    \"degraded\": ", result.degraded());
  num(out, ",\n    \"seconds\": ", result.campaign_seconds);
  out += "\n  }\n}\n";
  return out;
}

}  // namespace tytra::dse
