// Failure-domain tests for dse::Session campaigns: a fault in one job is
// contained to that job's JobStatus, every unaffected job completes with
// results byte-identical to a fault-free run, the shared cache stays
// usable, deadlines and cancellation degrade cooperatively, and every
// named failpoint seam is exercised. The concurrent mixes double as the
// TSan hammer for exception propagation out of Lowerer::lower / cost().

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "tytra/dse/cancel.hpp"
#include "tytra/dse/session.hpp"
#include "tytra/kernels/file_workload.hpp"
#include "tytra/kernels/registry.hpp"
#include "tytra/support/failpoint.hpp"

namespace {

using namespace tytra;
using kernels::Registry;

const cost::DeviceCostDb& preset_db(const std::string& name) {
  static std::map<std::string, cost::DeviceCostDb> dbs;
  const auto it = dbs.find(name);
  if (it != dbs.end()) return it->second;
  return dbs.emplace(name, cost::DeviceCostDb::calibrate(*target::preset(name)))
      .first->second;
}

dse::Job registry_job(const char* workload, std::uint32_t nd,
                      const cost::DeviceCostDb& db) {
  auto job = Registry::instance().make_job(workload, nd);
  EXPECT_TRUE(job.ok()) << job.error_message();
  dse::Job out = std::move(job).take();
  out.db = &db;
  return out;
}

/// A job whose every lowering throws — the synthetic "one bad job in the
/// middle of the campaign".
dse::Job throwing_job(const cost::DeviceCostDb& db) {
  dse::Job job;
  job.workload = "throwing";
  job.n = 4096;
  job.lower = std::make_shared<dse::FnLowerer>(
      [](const frontend::Variant&) -> ir::Module {
        throw std::runtime_error("synthetic lowering failure");
      });
  job.db = &db;
  return job;
}

/// A job that fails only on wide variants: some evaluations succeed
/// before the fault lands, exercising the partial-progress accounting.
dse::Job flaky_job(const cost::DeviceCostDb& db) {
  dse::Job job = registry_job("sor", 16, db);
  const auto real = job.lower;
  job.workload = "flaky";
  job.lower = std::make_shared<dse::FnLowerer>(
      [real](const frontend::Variant& v) -> ir::Module {
        if (v.lanes() >= 4) throw std::runtime_error("flaky above 4 lanes");
        return real->lower(v);
      });
  return job;
}

/// A unique temp file in the ctest working directory, removed on
/// destruction.
struct TempSnap {
  explicit TempSnap(const std::string& tag) {
    static int counter = 0;
    path = tag + "_" + std::to_string(counter++) + ".snap";
    std::remove(path.c_str());
  }
  ~TempSnap() { std::remove(path.c_str()); }
  std::string path;
};

// --------------------------------------------------------------------------
// Per-job containment
// --------------------------------------------------------------------------

TEST(FailureDomains, FailingJobIsContainedAndSurvivorsAreByteIdentical) {
  const auto& db = preset_db("fig15");
  for (const std::uint32_t threads : {1u, 2u, 8u}) {
    dse::SessionOptions so;
    so.num_threads = threads;

    // Reference: the campaign without the bad job, in a fresh session.
    dse::Campaign healthy;
    healthy.jobs.push_back(registry_job("sor", 16, db));
    healthy.jobs.push_back(registry_job("hotspot", 12, db));
    dse::Session ref_session(so);
    const dse::CampaignResult ref = ref_session.run(healthy);
    ASSERT_EQ(ref.degraded(), 0u) << "threads=" << threads;

    // The same campaign with a throwing job wedged in the middle.
    dse::Campaign faulted;
    faulted.jobs.push_back(healthy.jobs[0]);
    faulted.jobs.push_back(throwing_job(db));
    faulted.jobs.push_back(healthy.jobs[1]);
    dse::Session session(so);
    dse::CampaignResult got;
    ASSERT_NO_THROW(got = session.run(faulted)) << "threads=" << threads;

    ASSERT_EQ(got.jobs.size(), 3u);
    EXPECT_EQ(got.degraded(), 1u) << "threads=" << threads;

    const dse::JobStatus& bad = got.jobs[1].status;
    EXPECT_EQ(bad.state, dse::JobState::Failed);
    EXPECT_EQ(bad.error, "synthetic lowering failure");
    EXPECT_GE(bad.faults, 1u);
    EXPECT_EQ(bad.evaluated, 0u);
    EXPECT_TRUE(got.jobs[1].result.entries.empty())
        << "a partial sweep was presented as a result";

    // The survivors are byte-identical to the fault-free campaign.
    for (const std::size_t at : {std::size_t{0}, std::size_t{2}}) {
      const auto& survivor = got.jobs[at];
      const auto& expected = ref.jobs[at == 0 ? 0 : 1];
      EXPECT_TRUE(survivor.status.ok())
          << "threads=" << threads << " job " << at << ": "
          << survivor.status.error;
      EXPECT_EQ(dse::format_sweep(survivor.result),
                dse::format_sweep(expected.result))
          << "threads=" << threads << " job " << at;
      EXPECT_EQ(dse::format_pareto(survivor.result),
                dse::format_pareto(expected.result))
          << "threads=" << threads << " job " << at;
    }

    // The shared cache is not poisoned: re-running the healthy campaign
    // in the same session reproduces the reference results warm.
    const dse::CampaignResult after = session.run(healthy);
    ASSERT_EQ(after.degraded(), 0u);
    for (std::size_t j = 0; j < after.jobs.size(); ++j) {
      EXPECT_EQ(dse::format_sweep(after.jobs[j].result),
                dse::format_sweep(ref.jobs[j].result))
          << "threads=" << threads << " post-fault job " << j;
    }
  }
}

TEST(FailureDomains, PartialProgressIsAccountedExactly) {
  const auto& db = preset_db("fig15");
  dse::SessionOptions so;
  so.num_threads = 1;  // serial: the fault order is deterministic
  dse::Session session(so);
  dse::Campaign campaign;
  campaign.jobs.push_back(flaky_job(db));
  const dse::CampaignResult got = session.run(campaign);

  const dse::JobStatus& s = got.jobs[0].status;
  EXPECT_EQ(s.state, dse::JobState::Failed);
  EXPECT_EQ(s.error, "flaky above 4 lanes");
  EXPECT_GE(s.evaluated, 1u) << "narrow variants should have completed";
  EXPECT_EQ(s.faults, 1u) << "a dead job must not retry (fault storms)";
  // Every variant is accounted for exactly once.
  const std::size_t total = s.evaluated + s.faults + s.skipped;
  dse::Session probe{dse::SessionOptions{}};
  const dse::DseResult full = probe.explore(registry_job("sor", 16, db));
  EXPECT_EQ(total, full.entries.size());
}

TEST(FailureDomains, ExploreRethrowsTheOriginalException) {
  // Single-job calls keep the legacy contract: the evaluation's own
  // exception type and message, not a wrapper.
  const auto& db = preset_db("fig15");
  dse::Session session{dse::SessionOptions{}};
  try {
    session.explore(throwing_job(db));
    FAIL() << "explore swallowed the evaluation failure";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "synthetic lowering failure");
  }
  // The session survives for the next (healthy) job.
  const dse::DseResult ok = session.explore(registry_job("sor", 16, db));
  EXPECT_FALSE(ok.entries.empty());
}

// --------------------------------------------------------------------------
// Deadlines
// --------------------------------------------------------------------------

TEST(FailureDomains, DeadlineMarksCampaignJobsTimedOut) {
  const auto& db = preset_db("fig15");
  dse::Session session;
  dse::Campaign campaign;
  campaign.jobs.push_back(registry_job("sor", 16, db));
  campaign.jobs.push_back(registry_job("hotspot", 12, db));
  // Any positive elapsed time exceeds this budget, so the very first
  // deadline check trips — deterministic without sleeping.
  for (auto& job : campaign.jobs) job.deadline_seconds = 1e-300;
  const dse::CampaignResult got = session.run(campaign);
  ASSERT_EQ(got.degraded(), 2u);
  for (const auto& jr : got.jobs) {
    EXPECT_EQ(jr.status.state, dse::JobState::TimedOut);
    EXPECT_NE(jr.status.error.find("deadline exceeded"), std::string::npos)
        << jr.status.error;
    EXPECT_EQ(jr.status.evaluated, 0u);
    EXPECT_TRUE(jr.result.entries.empty());
  }
}

TEST(FailureDomains, PerJobDeadlineOverridesAndIsContained) {
  const auto& db = preset_db("fig15");
  dse::Session session;
  dse::Campaign campaign;
  campaign.jobs.push_back(registry_job("sor", 16, db));
  campaign.jobs.back().deadline_seconds = 1e-300;
  campaign.jobs.push_back(registry_job("hotspot", 12, db));
  const dse::CampaignResult got = session.run(campaign);
  EXPECT_EQ(got.jobs[0].status.state, dse::JobState::TimedOut);
  EXPECT_TRUE(got.jobs[1].status.ok())
      << "one job's deadline leaked into another: " << got.jobs[1].status.error;
  EXPECT_FALSE(got.jobs[1].result.entries.empty());
}

TEST(FailureDomains, SingleJobCallsThrowTypedDeadlineErrors) {
  const auto& db = preset_db("fig15");
  dse::Session session{dse::SessionOptions{}};
  dse::Job job = registry_job("sor", 16, db);
  job.deadline_seconds = 1e-300;
  EXPECT_THROW(session.explore(job), dse::DeadlineExceeded);
  EXPECT_THROW(session.tune(job), dse::DeadlineExceeded);
  try {
    session.explore(job);
  } catch (const dse::DeadlineExceeded& e) {
    EXPECT_NE(std::string(e.what()).find("deadline exceeded"),
              std::string::npos);
  }
}

// --------------------------------------------------------------------------
// Cancellation
// --------------------------------------------------------------------------

TEST(FailureDomains, CancelTokenStopsCampaignAndMarksJobsCancelled) {
  const auto& db = preset_db("fig15");
  dse::CancelToken token;
  token.request_cancel();  // flipped before the run: nothing may evaluate
  dse::SessionOptions so;
  so.cancel = &token;
  dse::Session session(so);
  dse::Campaign campaign;
  campaign.jobs.push_back(registry_job("sor", 16, db));
  campaign.jobs.push_back(registry_job("hotspot", 12, db));
  dse::CampaignResult got;
  ASSERT_NO_THROW(got = session.run(campaign));
  ASSERT_EQ(got.degraded(), 2u);
  for (const auto& jr : got.jobs) {
    EXPECT_EQ(jr.status.state, dse::JobState::Cancelled);
    EXPECT_EQ(jr.status.error, "cancelled");
    EXPECT_EQ(jr.status.evaluated, 0u);
  }
}

TEST(FailureDomains, SingleJobCallsThrowCancelledError) {
  const auto& db = preset_db("fig15");
  dse::CancelToken token;
  token.request_cancel();
  dse::SessionOptions so;
  so.cancel = &token;
  dse::Session session(so);
  const dse::Job job = registry_job("sor", 16, db);
  EXPECT_THROW(session.explore(job), dse::CancelledError);
  EXPECT_THROW(session.tune(job), dse::CancelledError);
}

TEST(FailureDomains, CancelTokenIsOneWayAndNoexcept) {
  dse::CancelToken token;
  EXPECT_FALSE(token.cancelled());
  static_assert(noexcept(token.request_cancel()));
  static_assert(noexcept(token.cancelled()));
  token.request_cancel();
  token.request_cancel();  // idempotent
  EXPECT_TRUE(token.cancelled());
}

// --------------------------------------------------------------------------
// The failpoint seam sweep
// --------------------------------------------------------------------------

TEST(FailureDomains, PoolTaskFailpointFailsJobsNeverTheCampaign) {
  const auto& db = preset_db("fig15");
  dse::Session session{dse::SessionOptions{}};
  dse::Campaign campaign;
  campaign.jobs.push_back(registry_job("sor", 16, db));
  campaign.jobs.push_back(registry_job("hotspot", 12, db));

  dse::CampaignResult faulted;
  {
    failpoint::Scoped guard("dse.pool-task", 100);
    ASSERT_NO_THROW(faulted = session.run(campaign));
  }
  ASSERT_EQ(faulted.degraded(), 2u);
  for (const auto& jr : faulted.jobs) {
    EXPECT_EQ(jr.status.state, dse::JobState::Failed);
    EXPECT_NE(jr.status.error.find("dse.pool-task"), std::string::npos);
  }
  // Disarmed, the same session completes the same campaign cleanly.
  const dse::CampaignResult clean = session.run(campaign);
  EXPECT_EQ(clean.degraded(), 0u);
}

TEST(FailureDomains, CacheInsertFailpointOnlyLosesMemoization) {
  // A cache that cannot publish entries degrades to recomputation —
  // results identical, jobs all ok, nothing torn. The campaign repeats a
  // job so the clean run provably memoizes and the faulted run provably
  // recomputes.
  const auto& db = preset_db("fig15");
  dse::Campaign campaign;
  campaign.jobs.push_back(registry_job("sor", 16, db));
  campaign.jobs.push_back(registry_job("sor", 16, db));

  dse::Session clean_session{dse::SessionOptions{}};
  const dse::CampaignResult clean = clean_session.run(campaign);
  ASSERT_GT(clean.cache_stats.variant_hits, 0u)
      << "the repeated job should have warmed through the cache";

  dse::Session session{dse::SessionOptions{}};
  dse::CampaignResult faulted;
  {
    failpoint::Scoped guard("cache.insert", 100);
    ASSERT_NO_THROW(faulted = session.run(campaign));
  }
  ASSERT_EQ(faulted.degraded(), 0u);
  EXPECT_EQ(faulted.cache_stats.hits, 0u)
      << "entries were published despite the armed insert failpoint";
  EXPECT_EQ(faulted.cache_stats.variant_hits, 0u);
  for (std::size_t j = 0; j < clean.jobs.size(); ++j) {
    EXPECT_TRUE(faulted.jobs[j].status.ok());
    EXPECT_EQ(dse::format_sweep(faulted.jobs[j].result),
              dse::format_sweep(clean.jobs[j].result))
        << "job " << j;
  }
}

TEST(FailureDomains, CalibrationFailpointsSurfaceBeforeAnyDse) {
  failpoint::Scoped guard("calibration.measure", 100);
  EXPECT_THROW(cost::DeviceCostDb::calibrate(*target::preset("fig15")),
               failpoint::InjectedFault);
}

TEST(FailureDomains, MembenchFailpointSurfacesThroughCalibration) {
  failpoint::Scoped guard("membench.measure", 100);
  EXPECT_THROW(cost::DeviceCostDb::calibrate(*target::preset("fig15")),
               failpoint::InjectedFault);
}

TEST(FailureDomains, WorkloadParseFailpointReturnsADiag) {
  failpoint::Scoped guard("workload.parse", 100);
  const auto r = kernels::load_file_workload("anything", 0);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error_message().find("workload.parse"), std::string::npos);
}

TEST(FailureDomains, SnapshotFailpointsDegradeOrFailLoudlyPerContract) {
  const auto& db = preset_db("fig15");
  TempSnap snap("failpoint_snap");

  // Build a good snapshot first.
  {
    dse::Session session{dse::SessionOptions{}};
    dse::Campaign campaign;
    campaign.jobs.push_back(registry_job("sor", 16, db));
    session.run(campaign);
    ASSERT_TRUE(session.save_snapshot(snap.path).ok());
  }

  // Write-side faults are loud: an explicit save returns the error.
  for (const char* point : {"snapshot.save", "binio.write"}) {
    dse::Session session{dse::SessionOptions{}};
    failpoint::Scoped guard(point, 100);
    const auto written = session.save_snapshot(snap.path + ".new");
    ASSERT_FALSE(written.ok()) << point;
    EXPECT_NE(written.diag().message.find(point), std::string::npos)
        << written.diag().message;
  }

  // Read-side faults: an explicit load returns the error and rolls the
  // session back to cold; a constructor warm start degrades silently
  // (one warning) instead of throwing.
  for (const char* point : {"snapshot.load", "binio.read"}) {
    dse::Session session{dse::SessionOptions{}};
    failpoint::Scoped guard(point, 100);
    const auto loaded = session.load_snapshot(snap.path);
    ASSERT_FALSE(loaded.ok()) << point;
    EXPECT_NE(loaded.diag().message.find(point), std::string::npos)
        << loaded.diag().message;

    dse::SessionOptions so;
    so.snapshot_path = snap.path;
    ASSERT_NO_THROW(dse::Session cold(so)) << point;
  }

  // The snapshot file itself was never harmed; a clean load still works.
  dse::Session session{dse::SessionOptions{}};
  EXPECT_TRUE(session.load_snapshot(snap.path).ok());
}

// --------------------------------------------------------------------------
// Concurrency hammer (the TSan target): throwing + healthy jobs mixed
// across thread counts, repeatedly, through one session and shared cache.
// --------------------------------------------------------------------------

TEST(FailureDomainsHammer, MixedThrowingAndHealthyJobsAcrossThreadCounts) {
  const auto& db = preset_db("fig15");
  for (const std::uint32_t threads : {1u, 2u, 8u}) {
    dse::SessionOptions so;
    so.num_threads = threads;
    dse::Session session(so);

    dse::Campaign campaign;
    campaign.jobs.push_back(registry_job("sor", 16, db));
    campaign.jobs.push_back(throwing_job(db));
    campaign.jobs.push_back(flaky_job(db));
    campaign.jobs.push_back(registry_job("hotspot", 12, db));
    campaign.jobs.push_back(registry_job("lavamd", 64, db));

    std::vector<std::string> first;
    for (int rep = 0; rep < 3; ++rep) {
      dse::CampaignResult got;
      ASSERT_NO_THROW(got = session.run(campaign))
          << "threads=" << threads << " rep=" << rep;
      ASSERT_EQ(got.jobs.size(), 5u);
      EXPECT_EQ(got.degraded(), 2u) << "threads=" << threads;
      EXPECT_EQ(got.jobs[1].status.state, dse::JobState::Failed);
      EXPECT_EQ(got.jobs[2].status.state, dse::JobState::Failed);
      // Survivors complete fully every rep and render identically across
      // reps — the fault-scarred cache never changes their results. (How
      // far the flaky job got before its fault is scheduling-dependent,
      // so campaign-level cache stats are deliberately not compared.)
      std::vector<std::string> rendered;
      for (const std::size_t at : {std::size_t{0}, std::size_t{3},
                                   std::size_t{4}}) {
        EXPECT_TRUE(got.jobs[at].status.ok()) << "threads=" << threads
                                              << " job " << at;
        EXPECT_FALSE(got.jobs[at].result.entries.empty());
        rendered.push_back(dse::format_sweep(got.jobs[at].result));
      }
      if (rep == 0) {
        first = rendered;
      } else {
        EXPECT_EQ(rendered, first) << "threads=" << threads << " rep=" << rep;
      }
    }
  }
}

}  // namespace
