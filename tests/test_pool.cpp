// Tests for the persistent dse::ThreadPool and the campaign-wide
// scheduler built on it: worker-index pinning, batch semantics and
// exception propagation, campaign output byte-identity across thread
// counts, and flattened-vs-job-by-job parity.

#include <gtest/gtest.h>

#ifdef __linux__
#include <sched.h>
#endif

#include <atomic>
#include <map>
#include <mutex>
#include <regex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "tytra/dse/pool.hpp"
#include "tytra/dse/session.hpp"
#include "tytra/kernels/kernels.hpp"
#include "tytra/kernels/registry.hpp"

namespace {

using namespace tytra;
using kernels::Registry;

// --------------------------------------------------------------------------
// ThreadPool
// --------------------------------------------------------------------------

TEST(Pool, RunsEveryParticipantExactlyOnceWithDistinctIndices) {
  dse::ThreadPool pool(3);
  EXPECT_EQ(pool.worker_count(), 3u);

  std::vector<std::atomic<int>> ran(4);
  pool.run_batch(4, [&](std::uint32_t index) {
    ASSERT_LT(index, 4u);
    ran[index].fetch_add(1);
  });
  for (int i = 0; i < 4; ++i) EXPECT_EQ(ran[i].load(), 1) << "index " << i;
}

TEST(Pool, CallerIsParticipantZeroAndWorkerIndicesArePinned) {
  // Worker index i must map to the same OS thread across batches, so
  // state a caller indexes by worker is only ever touched by one thread.
  dse::ThreadPool pool(3);
  std::mutex mu;
  std::map<std::uint32_t, std::set<std::thread::id>> ids;
  for (int batch = 0; batch < 8; ++batch) {
    pool.run_batch(4, [&](std::uint32_t index) {
      std::lock_guard<std::mutex> lock(mu);
      ids[index].insert(std::this_thread::get_id());
    });
  }
  ASSERT_EQ(ids.size(), 4u);
  for (const auto& [index, threads] : ids) {
    EXPECT_EQ(threads.size(), 1u) << "index " << index
                                  << " migrated between threads";
  }
  EXPECT_EQ(*ids[0].begin(), std::this_thread::get_id());
}

TEST(Pool, NarrowBatchesDraftOnlyLowIndices) {
  dse::ThreadPool pool(7);
  std::vector<std::atomic<int>> ran(8);
  pool.run_batch(2, [&](std::uint32_t index) { ran[index].fetch_add(1); });
  EXPECT_EQ(ran[0].load(), 1);
  EXPECT_EQ(ran[1].load(), 1);
  for (int i = 2; i < 8; ++i) EXPECT_EQ(ran[i].load(), 0) << "index " << i;
  // participants == 1 runs inline on the caller.
  const std::thread::id caller = std::this_thread::get_id();
  pool.run_batch(1, [&](std::uint32_t index) {
    EXPECT_EQ(index, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ran[0].fetch_add(1);
  });
  EXPECT_EQ(ran[0].load(), 2);
}

TEST(Pool, RejectsBadBatches) {
  dse::ThreadPool pool(1);
  EXPECT_THROW(pool.run_batch(3, [](std::uint32_t) {}),
               std::invalid_argument);
  EXPECT_THROW(pool.run_batch(2, dse::ThreadPool::BatchFn{}),
               std::invalid_argument);
  // Zero participants is a no-op, not an error.
  pool.run_batch(0, [](std::uint32_t) { FAIL() << "must not run"; });
}

TEST(Pool, ExceptionsPropagateAndThePoolStaysUsable) {
  dse::ThreadPool pool(3);
  // Thrown on a pool worker.
  EXPECT_THROW(pool.run_batch(4,
                              [](std::uint32_t index) {
                                if (index == 2) {
                                  throw std::runtime_error("worker boom");
                                }
                              }),
               std::runtime_error);
  // Thrown on the caller (participant 0).
  EXPECT_THROW(pool.run_batch(4,
                              [](std::uint32_t index) {
                                if (index == 0) {
                                  throw std::runtime_error("caller boom");
                                }
                              }),
               std::runtime_error);
  // The pool is not wedged: the next batch completes normally.
  std::atomic<int> done{0};
  pool.run_batch(4, [&](std::uint32_t) { done.fetch_add(1); });
  EXPECT_EQ(done.load(), 4);
}

TEST(Pool, CountsSuppressedExceptionsAcrossBatches) {
  // Only one exception can be rethrown per batch; the losers must be
  // counted, not silently dropped. The counter is cumulative over the
  // pool's lifetime and untouched by single-fault or clean batches.
  dse::ThreadPool pool(3);
  EXPECT_EQ(pool.suppressed_exception_count(), 0u);

  // All four participants throw: one rethrown, three suppressed.
  EXPECT_THROW(pool.run_batch(4,
                              [](std::uint32_t index) {
                                throw std::runtime_error(
                                    "boom " + std::to_string(index));
                              }),
               std::runtime_error);
  EXPECT_EQ(pool.suppressed_exception_count(), 3u);

  // A single-fault batch suppresses nothing.
  EXPECT_THROW(pool.run_batch(4,
                              [](std::uint32_t index) {
                                if (index == 1) {
                                  throw std::runtime_error("lone fault");
                                }
                              }),
               std::runtime_error);
  EXPECT_EQ(pool.suppressed_exception_count(), 3u);

  // Two faults (caller + one worker): one more suppressed, cumulatively.
  EXPECT_THROW(pool.run_batch(4,
                              [](std::uint32_t index) {
                                if (index <= 1) {
                                  throw std::runtime_error("pair fault");
                                }
                              }),
               std::runtime_error);
  EXPECT_EQ(pool.suppressed_exception_count(), 4u);

  // A clean batch leaves the count alone and the pool usable.
  std::atomic<int> done{0};
  pool.run_batch(4, [&](std::uint32_t) { done.fetch_add(1); });
  EXPECT_EQ(done.load(), 4);
  EXPECT_EQ(pool.suppressed_exception_count(), 4u);
}

#ifdef __linux__
TEST(Pool, WorkersRunUnderTheProcessMaskAfterPlacement) {
  // The constructor pins each new worker to its own CPU until the worker
  // first runs; by the time a batch runs, every thread must be back on
  // the process's full CPU mask.
  cpu_set_t process{};
  ASSERT_EQ(sched_getaffinity(0, sizeof process, &process), 0);
  for (int round = 0; round < 3; ++round) {
    dse::ThreadPool pool(3);
    std::vector<int> same(4, -1);
    pool.run_batch(4, [&](std::uint32_t index) {
      cpu_set_t mask{};
      if (sched_getaffinity(0, sizeof mask, &mask) == 0) {
        same[index] = CPU_EQUAL(&mask, &process) ? 1 : 0;
      }
    });
    for (std::size_t i = 0; i < same.size(); ++i) {
      EXPECT_EQ(same[i], 1) << "round " << round << " participant " << i;
    }
  }
}
#endif

TEST(Pool, DrainsASharedCursorCorrectly) {
  // The DSE usage pattern: the batch function drains an atomic cursor,
  // every item claimed exactly once across participants.
  dse::ThreadPool pool(3);
  constexpr int kItems = 10000;
  for (int rep = 0; rep < 5; ++rep) {
    std::atomic<int> cursor{0};
    std::vector<std::atomic<int>> claimed(kItems);
    pool.run_batch(4, [&](std::uint32_t) {
      for (;;) {
        const int i = cursor.fetch_add(1);
        if (i >= kItems) return;
        claimed[i].fetch_add(1);
      }
    });
    for (int i = 0; i < kItems; ++i) ASSERT_EQ(claimed[i].load(), 1);
  }
}

// --------------------------------------------------------------------------
// Campaign-wide scheduling
// --------------------------------------------------------------------------

dse::Campaign small_jobs_campaign() {
  // Many small jobs with repeats — the serving shape the flattened
  // scheduler exists for. 11 jobs across 3 kernels x sizes x 2 devices,
  // the last two repeating earlier {workload, size, device} points.
  dse::Campaign campaign;
  auto add = [&](const char* kernel, std::uint32_t nd, const char* device) {
    auto job = Registry::instance().make_job(kernel, nd);
    ASSERT_TRUE(job.ok()) << job.error_message();
    dse::Job j = std::move(job).take();
    j.device = device;
    campaign.jobs.push_back(std::move(j));
  };
  for (const char* device : {"fig15-profile", "stratix-v-gsd8"}) {
    add("sor", 8, device);
    add("sor", 12, device);
    add("hotspot", 12, device);
    add("lavamd", 48, device);
  }
  add("sor", 8, "fig15-profile");      // repeat of job 0
  add("hotspot", 12, "stratix-v-gsd8");  // repeat of job 6
  add("sor", 12, "fig15-profile");     // repeat of job 1
  return campaign;
}

dse::SessionOptions threaded(std::uint32_t num_threads) {
  dse::SessionOptions so;
  so.num_threads = num_threads;
  return so;
}

void add_two_devices(dse::Session& session) {
  session.add_device(*target::preset("fig15"));
  session.add_device(*target::preset("stratix-v-gsd8"));
}

/// Wall times are the one legitimately nondeterministic part of the JSON
/// renderings; blank them so the rest can be compared byte for byte.
std::string scrub_seconds(const std::string& json) {
  static const std::regex seconds_re(
      "(\"(?:explore_)?seconds\": )[-+0-9.eE]+");
  return std::regex_replace(json, seconds_re, "$1#");
}

TEST(CampaignScheduling, OutputIsByteIdenticalAcrossThreadCounts) {
  dse::Session base(threaded(1));
  add_two_devices(base);
  const dse::CampaignResult expected = base.run(small_jobs_campaign());

  const std::string expected_table = dse::format_campaign(expected);
  const std::string expected_pareto = dse::format_campaign_pareto(expected);
  const std::string expected_json =
      scrub_seconds(dse::format_campaign_json(expected));

  for (const std::uint32_t threads : {2u, 8u}) {
    dse::Session session(threaded(threads));
    add_two_devices(session);
    const dse::CampaignResult result = session.run(small_jobs_campaign());
    EXPECT_EQ(dse::format_campaign(result), expected_table)
        << "threads=" << threads;
    EXPECT_EQ(dse::format_campaign_pareto(result), expected_pareto)
        << "threads=" << threads;
    EXPECT_EQ(scrub_seconds(dse::format_campaign_json(result)), expected_json)
        << "threads=" << threads;
    ASSERT_EQ(result.jobs.size(), expected.jobs.size());
    for (std::size_t j = 0; j < result.jobs.size(); ++j) {
      EXPECT_EQ(dse::format_sweep(result.jobs[j].result),
                dse::format_sweep(expected.jobs[j].result))
          << "threads=" << threads << " job " << j;
      EXPECT_EQ(dse::format_pareto(result.jobs[j].result),
                dse::format_pareto(expected.jobs[j].result))
          << "threads=" << threads << " job " << j;
    }
  }
}

TEST(CampaignScheduling, FlattenedRunMatchesJobByJobExplore) {
  // The flattened two-wave schedule must attribute exactly the per-job
  // results (entries, best, frontier, hit/miss/variant stats) that
  // running the same jobs one at a time through an identical session
  // produces — including the repeats answering at the variant-key level.
  dse::Campaign campaign = small_jobs_campaign();
  dse::Session flat(threaded(4));
  add_two_devices(flat);
  const dse::CampaignResult result = flat.run(campaign);

  dse::Session serial(threaded(4));
  add_two_devices(serial);
  ASSERT_EQ(result.jobs.size(), campaign.jobs.size());
  for (std::size_t j = 0; j < campaign.jobs.size(); ++j) {
    const dse::DseResult reference = serial.explore(campaign.jobs[j]);
    const dse::DseResult& got = result.jobs[j].result;
    EXPECT_EQ(dse::format_sweep(got), dse::format_sweep(reference))
        << "job " << j;
    EXPECT_EQ(got.cache_stats.misses, reference.cache_stats.misses)
        << "job " << j;
    EXPECT_EQ(got.cache_stats.hits, reference.cache_stats.hits)
        << "job " << j;
    EXPECT_EQ(got.cache_stats.variant_hits,
              reference.cache_stats.variant_hits)
        << "job " << j;
  }

  // The repeats were deduplicated out of the evaluation wave: they cost
  // no lowering at all (every lookup answers at the variant-key level).
  const auto& repeat = result.jobs[result.jobs.size() - 1].result;
  EXPECT_EQ(repeat.cache_stats.misses, 0u);
  EXPECT_EQ(repeat.cache_stats.variant_hits, repeat.entries.size());
}

}  // namespace
