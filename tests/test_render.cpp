// Byte goldens for every dse renderer, and a mutation-fuzz loop for
// json::parse seeded with the engine's own JSON.
//
// The goldens pin the exact bytes of format_sweep / format_pareto /
// format_sweep_json / format_tune / format_tune_json (sor, nd 16, fig15,
// max lanes 8) and of the three campaign renderers over a two-job
// campaign whose second job failed with an error holding '"', '\\' and a
// 0x01 byte, and whose first job has one NaN EKIT (JSON null). Wall times
// are pinned before rendering. On a mismatch the actual bytes are written
// to `<golden name>.actual` in the working directory for inspection.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "tytra/dse/session.hpp"
#include "tytra/ir/lint.hpp"
#include "tytra/kernels/registry.hpp"
#include "tytra/support/json.hpp"
#include "tytra/support/rng.hpp"
#include "tytra/target/device.hpp"

namespace {

using namespace tytra;

struct Rendered {
  dse::DseResult sweep;
  dse::TuneResult tune;
  dse::CampaignResult campaign;
};

const Rendered& rendered() {
  static const Rendered r = [] {
    dse::Session session;
    const auto& db = session.add_device(*target::preset("fig15"));
    auto made = kernels::Registry::instance().make_job("sor", 16);
    EXPECT_TRUE(made.ok());
    dse::Job job = std::move(made).take();
    job.device = db.device().name;
    job.max_lanes = 8;

    Rendered out;
    out.sweep = session.explore(job);
    out.sweep.explore_seconds = 0.125;
    out.tune = session.tune(job);

    dse::CampaignJobResult ok{job, out.sweep, {}};
    // A non-best entry's EKIT goes NaN after the frontier is fixed: the
    // JSON must carry it as null.
    for (auto& e : ok.result.entries) {
      if (ok.result.best_entry() != &e) {
        e.report.throughput.ekit = std::numeric_limits<double>::quiet_NaN();
        break;
      }
    }
    dse::CampaignJobResult failed;
    failed.job = job;
    failed.job.workload = "hotspot";
    failed.job.nd = 8;
    failed.job.n = 64;
    failed.status.state = dse::JobState::Failed;
    failed.status.error = "lowering threw \"bad\" at C:\\tir\x01 end";
    failed.status.evaluated = 2;
    failed.status.faults = 1;
    failed.status.skipped = 3;
    out.campaign = dse::merge_campaign({ok, failed});
    out.campaign.campaign_seconds = 0.25;
    return out;
  }();
  return r;
}

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(TYTRA_SOURCE_DIR) + "/tests/golden/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden " << name;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void expect_golden(const std::string& name, const std::string& actual) {
  const std::string want = read_golden(name);
  if (actual != want) {
    std::ofstream(name + ".actual", std::ios::binary) << actual;
  }
  EXPECT_EQ(actual, want) << "golden " << name;
}

TEST(RenderGolden, Sweep) {
  const auto& r = rendered().sweep;
  ASSERT_EQ(r.entries.size(), 4u);
  expect_golden("sweep.txt", dse::format_sweep(r));
  expect_golden("pareto.txt", dse::format_pareto(r));
  expect_golden("sweep.json", dse::format_sweep_json(r));
}

TEST(RenderGolden, Tune) {
  const auto& r = rendered().tune;
  ASSERT_FALSE(r.trajectory.empty());
  expect_golden("tune.txt", dse::format_tune(r));
  expect_golden("tune.json", dse::format_tune_json(r));
}

TEST(RenderGolden, CampaignWithFailedJobAndNaN) {
  const auto& r = rendered().campaign;
  ASSERT_EQ(r.degraded(), 1u);
  expect_golden("campaign.txt", dse::format_campaign(r));
  expect_golden("campaign_pareto.txt", dse::format_campaign_pareto(r));
  const std::string doc = dse::format_campaign_json(r);
  expect_golden("campaign.json", doc);
  EXPECT_NE(doc.find("\"ekit\": null"), std::string::npos);
  EXPECT_NE(doc.find("\\\"bad\\\" at C:\\\\tir\\u0001 end"), std::string::npos);
}

// ---------------------------------------------------------------------------
// json::parse mutation fuzz over the engine's own output
// ---------------------------------------------------------------------------

std::vector<std::string> json_corpus() {
  const Rendered& r = rendered();
  ir::lint::LintReport lint;
  lint.findings.warning("unused \"memobj\" @m\\dead\t", SourceLoc{3, 7});
  lint.findings.add(Diag{Severity::Error, "bad\x02", {}, "TL005"});
  lint.rules_run = 13;
  return {dse::format_sweep_json(r.sweep), dse::format_tune_json(r.tune),
          dse::format_campaign_json(r.campaign),
          kernels::format_registry_json(kernels::Registry::instance()),
          ir::lint::format_lint_json(lint, "fix\"ture")};
}

std::string mutate(std::string s, SplitMix64& rng) {
  static const char* const kTokens[] = {
      "-",  "-0", "1.5", "1e999", "1e-999", "0.", "01", "\"", "\\", "[",
      "]",  "{",  "}",   ",",     ":",      "true", "nul", "\\u", "\\ud800",
      "\\u0041", "9007199254740993", "  ", "\x01"};
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const int edits = 1 + static_cast<int>(pick(4));
  for (int e = 0; e < edits && !s.empty(); ++e) {
    const std::size_t at = pick(s.size());
    switch (pick(5)) {
      case 0:  // flip a bit
        s[at] = static_cast<char>(s[at] ^ (1u << pick(8)));
        break;
      case 1:  // insert a JSON-significant token
        s.insert(at, kTokens[pick(std::size(kTokens))]);
        break;
      case 2:  // delete a short run
        s.erase(at, 1 + pick(8));
        break;
      case 3:  // truncate
        s.resize(at);
        break;
      default:  // duplicate a short run
        s.insert(at, s.substr(at, 1 + pick(16)));
        break;
    }
  }
  return s;
}

TEST(JsonParseFuzz, MutantsParseOrNameAByteOffset) {
  constexpr std::uint64_t seed = 0x5EED0018;
  SplitMix64 rng(seed);
  const std::vector<std::string> corpus = json_corpus();
  for (const std::string& doc : corpus) {
    ASSERT_TRUE(json::parse(doc).ok()) << doc;
  }

  // Time-boxed: at most kIterations mutants or two seconds of wall clock.
  constexpr int kIterations = 20000;
  const auto budget = std::chrono::seconds(2);
  const auto t0 = std::chrono::steady_clock::now();
  int ran = 0;
  int accepted = 0;
  for (; ran < kIterations && std::chrono::steady_clock::now() - t0 < budget;
       ++ran) {
    const std::string mutant =
        mutate(corpus[static_cast<std::size_t>(rng.uniform_int(
                   0, static_cast<std::int64_t>(corpus.size()) - 1))],
               rng);
    const auto parsed = json::parse(mutant);
    if (parsed.ok()) {
      ++accepted;
      continue;
    }
    const std::string& msg = parsed.diag().message;
    const std::size_t at = msg.rfind(" at byte ");
    ASSERT_NE(at, std::string::npos) << "seed " << seed << ": " << msg;
    const std::string offset = msg.substr(at + 9);
    ASSERT_FALSE(offset.empty()) << msg;
    ASSERT_EQ(offset.find_first_not_of("0123456789"), std::string::npos)
        << msg;
    EXPECT_LE(std::stoull(offset), mutant.size()) << msg;
  }
  EXPECT_GT(ran, 0);
  EXPECT_GT(accepted, 0) << "the mutator never produced a valid document";
}

}  // namespace
