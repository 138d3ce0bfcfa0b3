#include "tytra/dse/session.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>

#include <sys/stat.h>

#include "tytra/support/failpoint.hpp"
#include "tytra/support/strings.hpp"

// This file IS the DSE engine: the batched parallel sweep, the tuner's
// feedback walk and the Pareto skyline all live here. explore() and
// run() share one evaluation core (Session::evaluate), so a sweep and a
// campaign job cannot drift apart.

namespace tytra::dse {

namespace {

std::uint32_t resolve_threads(std::uint32_t requested, std::size_t work_items) {
  // The clamping policy is documented on SessionOptions::num_threads: at
  // most 4x the core count and at most one worker per variant.
  std::uint32_t cores = std::thread::hardware_concurrency();
  if (cores == 0) cores = 1;
  std::uint32_t n = requested == 0 ? cores : std::min(requested, 4 * cores);
  if (work_items < n) n = static_cast<std::uint32_t>(work_items);
  return n == 0 ? 1 : n;
}

/// One unit of evaluation work: a variant, the lowerer/database it is
/// evaluated through, the result slot it writes, and the job it belongs
/// to (the failure domain). A sweep's tasks all share one (lower, db,
/// job); a campaign's flattened list mixes jobs.
struct EvalTask {
  const frontend::Variant* variant;
  const Lowerer* lower;
  const cost::DeviceCostDb* db;
  std::size_t slot;
  std::size_t job;
};

double seconds_since(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// What the workers recorded about one job. Exactly one task per job —
/// the one whose dead-flag exchange came back false — gets to set the
/// state and first error; later faults in the same job only bump the
/// count.
struct FaultRecord {
  JobState state{JobState::Ok};
  std::exception_ptr error;  ///< first failing evaluation, for rethrow
  std::string message;       ///< its what(), for JobStatus::error
  std::size_t faults{0};     ///< evaluations that threw
};

/// Per-batch failure-domain state shared by the workers: one dead flag
/// and one FaultRecord per job. The dead flags gate task draw — the
/// first fault (or deadline expiry) in a job marks it dead and its
/// remaining tasks are skipped, so a failing job costs no more
/// wall-clock than the work it completed (no retries, no wedged pool).
struct EvalContext {
  const CancelToken* cancel;
  std::chrono::steady_clock::time_point t0;
  /// Per-job wall-clock budget in seconds since t0; <= 0 disables.
  std::vector<double> deadline;
  bool any_deadline{false};
  /// Per-job cancel tokens (Job::cancel); null disables. A flipped token
  /// kills only its job — the dead flag gates the rest, and
  /// finalize_status turns the incomplete-but-fault-free job into
  /// Cancelled.
  std::vector<const CancelToken*> job_cancel;
  bool any_job_cancel{false};
  std::vector<FaultRecord> records;
  std::unique_ptr<std::atomic<bool>[]> dead;  ///< one flag per job
  std::mutex mu;  ///< guards records (cold path only)

  EvalContext(std::size_t jobs, const CancelToken* cancel_token,
              std::chrono::steady_clock::time_point start)
      : cancel(cancel_token),
        t0(start),
        deadline(jobs, 0.0),
        job_cancel(jobs, nullptr),
        records(jobs),
        dead(std::make_unique<std::atomic<bool>[]>(jobs)) {
    for (std::size_t j = 0; j < jobs; ++j) {
      dead[j].store(false, std::memory_order_relaxed);
    }
  }
};

/// One variant's report: through the cache when there is one (recording
/// whether it hit in `hit`, and sharing a lowering through `shared`),
/// else lowered and costed directly.
cost::CostReport cost_variant(const frontend::Variant& variant,
                              const Lowerer& lower,
                              const cost::DeviceCostDb& db, CostCache* cache,
                              bool* hit = nullptr,
                              SharedLowering* shared = nullptr) {
  if (cache) return cache->cost(variant, lower, db, hit, shared);
  return cost::cost_design(lower.lower(variant), db);
}

/// One wave of evaluation work: its tasks in claim order, cut into groups
/// that a worker claims whole. Group g is tasks[bounds[g], bounds[g + 1]).
/// A group of several tasks is one design on several databases, so its
/// members share one lowering; every other group is a single task.
struct Wave {
  std::vector<EvalTask> tasks;
  std::vector<std::size_t> bounds{0};

  void add_single(const EvalTask& t) {
    tasks.push_back(t);
    bounds.push_back(tasks.size());
  }
  [[nodiscard]] std::size_t groups() const { return bounds.size() - 1; }
};

/// Drains `wave` into per-task slots. The work-queue is a single atomic
/// cursor over the wave's groups; slots are disjoint, so workers never
/// contend on results, and merging slots in enumeration order is
/// deterministic no matter the interleaving. A worker runs a group's
/// members in task order, so they probe the cache in that order; the
/// first miss lowers and later misses reuse its lowering. hits[slot]
/// records whether the cache answered (stays 0 when uncached); the
/// per-batch accounting is aggregated from it afterwards,
/// deterministically, instead of from racing shared counters.
///
/// Failure containment is per job, not per batch: a throwing evaluation
/// (including the `dse.pool-task` failpoint) records the job's first
/// error in ctx and kills only that job's remaining tasks; every other
/// job keeps evaluating. Each group member passes the same per-task
/// checks, and a lowering that throws is not shared, so the next member
/// lowers again and records its own fault. A flipped CancelToken jumps
/// the cursor past the end — in-flight evaluations finish (their slots
/// stay valid), nothing new starts. This function itself never throws
/// engine errors; callers read ctx.records and decide (explore rethrows,
/// run() degrades).
void evaluate_tasks(const Wave& wave, CostCache* cache, ThreadPool* pool,
                    std::uint32_t participants,
                    std::vector<std::optional<cost::CostReport>>& slots,
                    std::vector<std::uint8_t>& hits, EvalContext& ctx) {
  std::atomic<std::size_t> cursor{0};
  const std::size_t groups = wave.groups();

  const auto evaluate_one = [&](const EvalTask& t, SharedLowering* shared) {
    if (ctx.dead[t.job].load(std::memory_order_relaxed)) return;
    if (ctx.any_job_cancel) {
      const CancelToken* jc = ctx.job_cancel[t.job];
      if (jc != nullptr && jc->cancelled()) {
        // Idempotent store, no record: finalize_status derives the
        // Cancelled state from the fault-free-but-incomplete slots.
        ctx.dead[t.job].store(true, std::memory_order_relaxed);
        return;
      }
    }
    if (ctx.any_deadline) {
      const double budget = ctx.deadline[t.job];
      if (budget > 0 && seconds_since(ctx.t0) >= budget) {
        if (!ctx.dead[t.job].exchange(true, std::memory_order_relaxed)) {
          std::lock_guard<std::mutex> lock(ctx.mu);
          FaultRecord& r = ctx.records[t.job];
          r.state = JobState::TimedOut;
          r.message = "deadline exceeded (budget " +
                      tytra::format_general(budget, 6) + " s)";
        }
        return;
      }
    }
    try {
      failpoint::maybe_throw("dse.pool-task");
      bool hit = false;
      slots[t.slot] =
          cost_variant(*t.variant, *t.lower, *t.db, cache, &hit, shared);
      hits[t.slot] = hit;
    } catch (...) {
      const bool first =
          !ctx.dead[t.job].exchange(true, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(ctx.mu);
      FaultRecord& r = ctx.records[t.job];
      ++r.faults;
      if (first) {
        r.state = JobState::Failed;
        r.error = std::current_exception();
        try {
          throw;
        } catch (const std::exception& e) {
          r.message = e.what();
        } catch (...) {
          r.message = "unknown exception";
        }
      }
    }
  };

  auto worker = [&](std::uint32_t) {
    const auto cancelled = [&] {
      if (ctx.cancel == nullptr || !ctx.cancel->cancelled()) return false;
      // Unfinished jobs are marked Cancelled by finalize_status once the
      // batch drains.
      cursor.store(groups, std::memory_order_relaxed);
      return true;
    };
    for (;;) {
      if (cancelled()) return;
      const std::size_t g = cursor.fetch_add(1, std::memory_order_relaxed);
      if (g >= groups) return;
      const std::size_t begin = wave.bounds[g];
      const std::size_t end = wave.bounds[g + 1];
      SharedLowering lowering;
      SharedLowering* shared = end - begin > 1 ? &lowering : nullptr;
      for (std::size_t i = begin; i < end; ++i) {
        if (i > begin && cancelled()) return;
        evaluate_one(wave.tasks[i], shared);
      }
    }
  };

  if (participants <= 1 || pool == nullptr) {
    worker(0);
  } else {
    pool->run_batch(participants, worker);
  }
}

/// Derives one job's final JobStatus from its slot range after every
/// wave drained: evaluated = filled slots, skipped = the rest minus the
/// faulting attempts. A job that recorded nothing wrong but did not
/// finish can only have been stopped by the cancel latch.
JobStatus finalize_status(const EvalContext& ctx, std::size_t job,
                          const std::vector<std::optional<cost::CostReport>>&
                              slots,
                          std::size_t begin, std::size_t end) {
  const FaultRecord& r = ctx.records[job];
  JobStatus s;
  s.state = r.state;
  s.error = r.message;
  s.faults = r.faults;
  for (std::size_t i = begin; i < end; ++i) {
    if (slots[i].has_value()) ++s.evaluated;
  }
  s.skipped = (end - begin) - s.evaluated - s.faults;
  if (s.state == JobState::Ok && s.evaluated < end - begin) {
    s.state = JobState::Cancelled;
    s.error = "cancelled";
  }
  return s;
}

/// Sums hits[begin, end) into per-sweep stats — only for slots that
/// were actually evaluated (a skipped task's flag is a meaningless
/// default, not a miss). Separate from the cache's global counters,
/// which concurrent sweeps sharing the cache also advance; and per-slot,
/// so a campaign can attribute one flattened batch back to its jobs in
/// enumeration order.
void accumulate_stats(CacheStats& stats, const std::vector<std::uint8_t>& hits,
                      const std::vector<std::optional<cost::CostReport>>& slots,
                      std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    if (!slots[i].has_value()) continue;
    ++(hits[i] ? stats.hits : stats.misses);
  }
  stats.variant_hits = stats.hits;
}

}  // namespace

double bandwidth_share(const cost::CostReport& report) {
  const auto& t = report.throughput;
  return t.seconds_per_instance > 0 ? t.t_mem_stream / t.seconds_per_instance
                                    : 0.0;
}

// A point dominates another when it is at least as good on every
// objective (EKIT >=, util <=, bw-share <=) and strictly better on one.
//
/// Sort-based skyline over an arbitrary candidate set. Candidates sorted
/// by EKIT descending can only be dominated by points earlier in the
/// sort; kept points are condensed into a (util, bw) staircase —
/// strictly increasing util, strictly decreasing bw — so each dominance
/// probe is one ordered-map lookup: O(n log n) overall. Returns the keep
/// flag per candidate position; ties break on candidate position, so
/// callers that build candidates in enumeration order get the same set
/// and order as the all-pairs definition. Shared by per-sweep frontiers
/// and the campaign's merged view.
std::vector<bool> detail::skyline_keep(
    const std::vector<ParetoPoint>& candidates) {
  std::vector<bool> keep(candidates.size(), false);
  // A non-finite objective breaks the sort's strict weak ordering (NaN
  // compares false against everything) and has no place on the staircase;
  // such a candidate is never a frontier member and must not dominate
  // anything, so it is dropped before ordering.
  std::vector<std::size_t> order;
  order.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const ParetoPoint& p = candidates[i];
    if (std::isfinite(p.ekit) && std::isfinite(p.util_max) &&
        std::isfinite(p.bw_share)) {
      order.push_back(i);
    }
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const ParetoPoint& pa = candidates[a];
    const ParetoPoint& pb = candidates[b];
    if (pa.ekit != pb.ekit) return pa.ekit > pb.ekit;
    if (pa.util_max != pb.util_max) return pa.util_max < pb.util_max;
    if (pa.bw_share != pb.bw_share) return pa.bw_share < pb.bw_share;
    return a < b;
  });

  // Staircase over kept points from strictly-higher-EKIT groups. Every
  // staircase point has strictly greater EKIT than the probe, so covering
  // it on (util, bw) — even with equality — is domination.
  std::map<double, double> staircase;  // util -> bw, bw strictly decreasing
  const auto covered = [&](const ParetoPoint& c) {
    auto it = staircase.upper_bound(c.util_max);
    if (it == staircase.begin()) return false;
    --it;  // greatest util <= c.util; its bw is the minimum among those
    return it->second <= c.bw_share;
  };
  const auto insert_point = [&](const ParetoPoint& c) {
    auto it = staircase.upper_bound(c.util_max);
    if (it != staircase.begin() && std::prev(it)->second <= c.bw_share) {
      return;  // an existing point already covers it
    }
    auto pos = staircase.lower_bound(c.util_max);
    while (pos != staircase.end() && pos->second >= c.bw_share) {
      pos = staircase.erase(pos);
    }
    staircase.emplace(c.util_max, c.bw_share);
  };

  std::size_t g = 0;
  while (g < order.size()) {
    // One group of equal-EKIT candidates, in (util asc, bw asc) order.
    std::size_t g_end = g + 1;
    while (g_end < order.size() &&
           candidates[order[g_end]].ekit == candidates[order[g]].ekit) {
      ++g_end;
    }
    // Within the group EKIT ties, so domination needs strictness on the
    // other two objectives. Earlier members have util <= ours; tracking
    // the running minimum bw (and the smallest util achieving it) decides
    // domination without a scan. Dominated members participate too:
    // whatever they would dominate, their own dominator also dominates.
    double g_min_bw = 0;
    double g_min_bw_util = 0;
    for (std::size_t k = g; k < g_end; ++k) {
      const ParetoPoint& c = candidates[order[k]];
      const bool by_group =
          k > g && (g_min_bw < c.bw_share ||
                    (g_min_bw == c.bw_share && g_min_bw_util < c.util_max));
      keep[order[k]] = !by_group && !covered(c);
      if (k == g || c.bw_share < g_min_bw) {
        g_min_bw = c.bw_share;
        g_min_bw_util = c.util_max;  // first achiever has the smallest util
      }
    }
    // Merge the group's survivors only after the whole group is probed:
    // equal-EKIT points must not dominate through the staircase.
    for (std::size_t k = g; k < g_end; ++k) {
      if (keep[order[k]]) insert_point(candidates[order[k]]);
    }
    g = g_end;
  }
  return keep;
}

namespace {

std::vector<ParetoPoint> pareto_frontier(const std::vector<DseEntry>& entries) {
  std::vector<ParetoPoint> candidates;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& e = entries[i];
    if (!e.report.valid) continue;
    candidates.push_back(ParetoPoint{i, e.report.throughput.ekit,
                                     e.report.resources.util.max(),
                                     bandwidth_share(e.report)});
  }
  const std::vector<bool> keep = detail::skyline_keep(candidates);
  std::vector<ParetoPoint> frontier;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (keep[i]) frontier.push_back(candidates[i]);
  }
  return frontier;  // candidates were built in enumeration order
}

/// Smallest divisor of n strictly greater than `lanes`, or 0 — one
/// upper_bound on the pre-enumerated divisor ladder.
std::uint64_t next_lane_count(const std::vector<std::uint64_t>& divs,
                              std::uint64_t lanes) {
  const auto it = std::upper_bound(divs.begin(), divs.end(), lanes);
  return it == divs.end() ? 0 : *it;
}

/// Index of the highest-EKIT valid report in `seq` (get maps an element
/// to its CostReport), or nullopt when nothing is valid — the one "best"
/// rule shared by the sweep's entries and the tuner's trajectory.
template <typename Seq, typename GetReport>
std::optional<std::size_t> best_valid_index(const Seq& seq, GetReport get) {
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    const cost::CostReport& r = get(seq[i]);
    if (!r.valid) continue;
    if (!best || r.throughput.ekit > get(seq[*best]).throughput.ekit) {
      best = i;
    }
  }
  return best;
}

/// Deterministic merge in enumeration order: moves variants[i] +
/// slots[offset + i] into entries, then derives best and the frontier —
/// the per-job attribution of one flattened batch.
void merge_sweep(DseResult& result, std::vector<frontend::Variant>& variants,
                 std::vector<std::optional<cost::CostReport>>& slots,
                 std::size_t offset) {
  result.entries.reserve(variants.size());
  for (std::size_t i = 0; i < variants.size(); ++i) {
    result.entries.emplace_back(std::move(variants[i]),
                                std::move(*slots[offset + i]));
  }
  result.best = best_valid_index(
      result.entries, [](const DseEntry& e) -> const cost::CostReport& {
        return e.report;
      });
  result.pareto = pareto_frontier(result.entries);
}

TuneResult run_tune(std::uint64_t n, const Lowerer& lower,
                    const cost::DeviceCostDb& db, int max_steps,
                    std::uint32_t max_lanes, CostCache* cache,
                    const CancelToken* cancel,
                    const CancelToken* job_cancel, double deadline_seconds,
                    std::chrono::steady_clock::time_point t0) {
  TuneResult result;
  if (max_steps <= 0) {
    // Guard the degenerate budget instead of indexing an empty trajectory.
    result.verdict = "stopped: no step budget (max_steps <= 0)";
    return result;
  }
  // One O(sqrt n) enumeration serves every step's "next lane count" probe.
  const std::vector<std::uint64_t> lane_ladder = frontend::divisors(n);
  frontend::Variant current = frontend::baseline_variant(n);
  std::string action = "baseline: single kernel pipeline (what an HLS tool extracts)";

  for (int step = 0; step < max_steps; ++step) {
    // The walk's checkpoints mirror evaluate_tasks' variant granularity:
    // a cancel or expiry stops the next step, never one in flight.
    if (cancel != nullptr && cancel->cancelled()) throw CancelledError();
    if (job_cancel != nullptr && job_cancel->cancelled()) {
      throw CancelledError();
    }
    if (deadline_seconds > 0 && seconds_since(t0) >= deadline_seconds) {
      throw DeadlineExceeded(deadline_seconds);
    }
    cost::CostReport report = cost_variant(current, lower, db, cache);
    const bool valid = report.valid;
    const cost::Wall wall = report.throughput.limiting;
    result.trajectory.emplace_back(current, std::move(report), action);
    const auto& placed = result.trajectory.back();

    if (!valid) {
      result.verdict =
          "stopped: variant exceeds the device (computation wall); keeping "
          "the last fitting variant";
      break;
    }
    if (wall == cost::Wall::HostBandwidth) {
      result.verdict =
          "stopped: host-bandwidth wall — replication cannot help; move to a "
          "form-B/C memory execution or reduce host traffic";
      break;
    }
    if (wall == cost::Wall::DramBandwidth) {
      result.verdict =
          "stopped: DRAM-bandwidth wall — replication cannot help; improve "
          "access contiguity or tile through local memory";
      break;
    }

    // Compute-bound (or fill-bound): add lanes.
    const std::uint64_t next =
        next_lane_count(lane_ladder, placed.report.params.knl);
    if (next == 0) {
      result.verdict = "stopped: no further lane count divides the NDRange";
      break;
    }
    if (next > max_lanes) {
      // The resolved lane cap bounds the walk exactly like it bounds the
      // sweep's enumeration (this used to be a hard-coded `next > 1024`
      // that ignored Job::max_lanes / SessionOptions::max_lanes).
      result.verdict = "stopped: lane cap reached (next divisor " +
                       std::to_string(next) +
                       " exceeds max_lanes=" + std::to_string(max_lanes) + ")";
      break;
    }
    current = frontend::reshape_to(frontend::baseline_variant(n), next,
                                   frontend::ParAnn::Par);
    action = "compute wall at " + std::to_string(placed.report.params.knl) +
             " lanes -> reshapeTo " + std::to_string(next) + " lanes";
  }

  // Best valid step; stays nullopt when every step exceeded the device.
  result.best = best_valid_index(
      result.trajectory, [](const TuneStep& s) -> const cost::CostReport& {
        return s.report;
      });
  if (result.verdict.empty()) result.verdict = "stopped: step budget exhausted";
  return result;
}

}  // namespace

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

namespace {

// Snapshot container section ids.
constexpr std::uint32_t kSecMeta = 1;
constexpr std::uint32_t kSecEntries = 2;
constexpr std::uint32_t kSecCalibration = 4;

/// Version of the *payload* schemas inside the sections (report encoding,
/// key scheme, entry layout, calibration layout). Bump on any change to
/// those — the container format version in binio.hpp only covers the
/// framing. Version 2 dropped the printed-IR identity text from structural
/// entries; version 3 keeps one entries section of (variant key, report);
/// version 4 drops the per-function resource table from each report.
constexpr std::uint32_t kSnapshotPayloadVersion = 4;

/// Opens a snapshot file and checks its container and meta section.
Result<binio::Reader> open_snapshot(const std::string& path) {
  auto opened = binio::Reader::open(path);
  if (!opened.ok()) return opened.diag();
  binio::Reader reader = std::move(opened).take();
  if (!reader.has_section(kSecMeta)) {
    return make_error("snapshot: missing meta section");
  }
  binio::Decoder meta(reader.section(kSecMeta));
  const std::uint32_t payload_version = meta.u32();
  if (meta.ok() && payload_version != kSnapshotPayloadVersion) {
    return make_error("snapshot: payload version " +
                      std::to_string(payload_version) +
                      " unsupported (this build reads " +
                      std::to_string(kSnapshotPayloadVersion) + ")");
  }
  if (!meta.at_end()) return make_error("snapshot: " + meta.error());
  return reader;
}

/// Decodes the calibration section (when present), handing each stored
/// (device name, database) to `take`; the first defect is returned. The
/// fingerprint stored beside a database must be the one its device
/// description hashes to.
std::optional<Diag> decode_calibrations(
    const binio::Reader& reader,
    const std::function<void(std::string, cost::DeviceCostDb)>& take) {
  if (!reader.has_section(kSecCalibration)) return std::nullopt;
  binio::Decoder calib(reader.section(kSecCalibration));
  const std::uint64_t count = calib.u64();
  if (!calib.fits(count, 8)) return make_error("snapshot: " + calib.error());
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string name = calib.str();
    const std::uint64_t fingerprint = calib.u64();
    auto db = cost::DeviceCostDb::load(calib);
    if (!db.ok()) return db.diag();
    if (!calib.ok()) return make_error("snapshot: " + calib.error());
    if (db.value().fingerprint() != fingerprint) {
      return make_error("snapshot: calibration '" + name +
                        "' does not match its stored fingerprint");
    }
    take(std::move(name), std::move(db).take());
  }
  if (!calib.at_end()) return make_error("snapshot: " + calib.error());
  return std::nullopt;
}

}  // namespace

Session::Session(SessionOptions options) : options_(std::move(options)) {
  if (options_.max_lanes == 0) {
    throw std::invalid_argument(
        "dse::Session: SessionOptions::max_lanes must be >= 1 (a sweep over "
        "no lane counts is empty)");
  }
  if (options_.enable_cache) {
    cache_ = std::make_unique<CostCache>();
  }
  if (!options_.snapshot_path.empty()) {
    // A missing file is a normal first run: cold-start silently, and the
    // eventual save_snapshot() creates it. Everything else that can be
    // wrong with the file surfaces as exactly one structured warning.
    std::FILE* probe = std::fopen(options_.snapshot_path.c_str(), "rb");
    if (probe != nullptr) {
      std::fclose(probe);
      const auto loaded = load_snapshot(options_.snapshot_path);
      if (!loaded.ok()) {
        std::fprintf(stderr,
                     "tytra: warning: snapshot-load path='%s' error='%s' "
                     "action=cold-start\n",
                     options_.snapshot_path.c_str(),
                     loaded.diag().message.c_str());
      }
    }
  }
}

Session::~Session() = default;

const cost::DeviceCostDb& Session::add_device(const target::DeviceDesc& desc) {
  // A restored calibration is used only while its fingerprint still
  // matches the incoming description — a stale entry (edited .tgt file,
  // different preset under the same name) is dropped and recalibrated,
  // never trusted.
  const auto it = restored_.find(desc.name);
  if (it != restored_.end() &&
      it->second.fingerprint() == device_fingerprint(desc)) {
    cost::DeviceCostDb db = std::move(it->second);
    restored_.erase(it);
    return insert_device(desc.name, std::move(db));
  }
  cost::DeviceCostDb db = cost::DeviceCostDb::calibrate(desc);
  if (it != restored_.end()) restored_.erase(it);
  return add_device(desc.name, std::move(db));
}

const cost::DeviceCostDb& Session::add_device(std::string name,
                                              cost::DeviceCostDb db) {
  loaded_.reset();  // a database the loaded snapshot does not hold
  return insert_device(std::move(name), std::move(db));
}

const cost::DeviceCostDb& Session::insert_device(std::string name,
                                                 cost::DeviceCostDb db) {
  if (name.empty()) {
    throw std::invalid_argument("dse::Session: device name must be non-empty");
  }
  const auto [it, inserted] = devices_.emplace(std::move(name), std::move(db));
  if (!inserted) {
    throw std::invalid_argument("dse::Session: device '" + it->first +
                                "' is already in the device table");
  }
  device_order_.push_back(it->first);
  return it->second;
}

const cost::DeviceCostDb* Session::find_device(std::string_view name) const {
  const auto it = devices_.find(name);
  return it == devices_.end() ? nullptr : &it->second;
}

std::string_view job_state_name(JobState state) {
  switch (state) {
    case JobState::Ok: return "ok";
    case JobState::Failed: return "failed";
    case JobState::TimedOut: return "timed_out";
    case JobState::Cancelled: return "cancelled";
  }
  return "unknown";
}

std::optional<Session::FileStamp> Session::stamp_of(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return std::nullopt;
  return FileStamp{static_cast<std::uint64_t>(st.st_dev),
                   static_cast<std::uint64_t>(st.st_ino),
                   static_cast<std::uint64_t>(st.st_size),
                   static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1000000000 +
                       st.st_mtim.tv_nsec};
}

Result<Session::SnapshotStats> Session::load_snapshot(const std::string& path) {
  loaded_.reset();
  if (failpoint::fire("snapshot.load")) {
    return make_error("snapshot: injected fault at failpoint 'snapshot.load'");
  }
  // Only a load into an empty session leaves it holding exactly what the
  // file holds; the stamps around the read tie that content to one file.
  const bool empty = cache_ && cache_->size() == 0 && devices_.empty() &&
                     restored_.empty();
  const std::optional<FileStamp> before = stamp_of(path);
  auto opened = open_snapshot(path);
  if (!opened.ok()) return opened.diag();
  const binio::Reader reader = std::move(opened).take();

  // Any failure past this point rolls the session back to fully cold: a
  // prefix of a snapshot must be indistinguishable from no snapshot.
  const auto rollback = [&](const Diag& why) {
    if (cache_) cache_->clear();
    restored_.clear();
    return why;
  };

  SnapshotStats stats;
  if (cache_) {
    binio::Decoder entries(reader.section(kSecEntries));
    auto count = cache_->load(entries);
    if (!count.ok()) return rollback(count.diag());
    stats.entries = count.value();
  }
  const auto failed = decode_calibrations(
      reader, [&](std::string name, cost::DeviceCostDb db) {
        restored_.insert_or_assign(std::move(name), std::move(db));
        ++stats.calibrations;
      });
  if (failed) return rollback(*failed);

  if (empty && before && before == stamp_of(path)) {
    loaded_ = LoadedSnapshot{path, *before, cache_->size()};
  }
  return stats;
}

Result<std::uint64_t> Session::save_snapshot(const std::string& path) {
  const std::string& target = path.empty() ? options_.snapshot_path : path;
  if (target.empty()) {
    return make_error(
        "snapshot: no path given (set SessionOptions::snapshot_path or pass "
        "one explicitly)");
  }
  if (failpoint::fire("snapshot.save")) {
    return make_error("snapshot: injected fault at failpoint 'snapshot.save'");
  }
  // Nothing added since `target` was loaded, and it is still that file:
  // rewriting it would only spend the encode and the fsyncs.
  if (loaded_ && loaded_->path == target &&
      cache_->size() == loaded_->entries &&
      stamp_of(target) == loaded_->stamp) {
    return loaded_->stamp.size;
  }

  binio::Writer writer;
  binio::Encoder meta;
  meta.u32(kSnapshotPayloadVersion);
  writer.add_section(kSecMeta, meta.take());

  binio::Encoder entries;
  if (cache_) cache_->dump(entries);
  writer.add_section(kSecEntries, entries.take());

  // Claimed calibrations first, then restored-but-unclaimed ones (a job
  // that only exercised one device must not drop the others' calibration
  // work); a name in both tables keeps the live database.
  std::size_t unclaimed = 0;
  for (const auto& [name, db] : restored_) {
    if (devices_.find(name) == devices_.end()) ++unclaimed;
  }
  binio::Encoder calib;
  calib.u64(devices_.size() + unclaimed);
  for (const auto& [name, db] : devices_) {
    calib.str(name);
    calib.u64(db.fingerprint());
    db.save(calib);
  }
  for (const auto& [name, db] : restored_) {
    if (devices_.find(name) != devices_.end()) continue;
    calib.str(name);
    calib.u64(db.fingerprint());
    db.save(calib);
  }
  writer.add_section(kSecCalibration, calib.take());

  return writer.write(target);
}

Result<SnapshotSummary> verify_snapshot(const std::string& path) {
  auto opened = open_snapshot(path);
  if (!opened.ok()) return opened.diag();
  const binio::Reader reader = std::move(opened).take();

  SnapshotSummary out;
  out.format_version = reader.format_version();
  out.payload_version = kSnapshotPayloadVersion;
  out.file_bytes = reader.file_size();

  // Decode every cache entry through a scratch cache — the exact walk a
  // warm start performs, so "verify passed" means "a load would succeed".
  CostCache scratch;
  binio::Decoder entries(reader.section(kSecEntries));
  auto count = scratch.load(entries);
  if (!count.ok()) return count.diag();
  out.entries = count.value();

  const auto failed = decode_calibrations(
      reader, [&](std::string name, cost::DeviceCostDb db) {
        out.calibrations.emplace_back(std::move(name), db.fingerprint());
      });
  if (failed) return *failed;
  return out;
}

Session::ResolvedJob Session::resolve(const Job& job) const {
  if (!job.lower) {
    throw std::invalid_argument("dse::Session: Job::lower is null — nothing "
                                "can materialize the variants");
  }
  if (job.n == 0) {
    throw std::invalid_argument(
        "dse::Session: Job::n (NDRange size) must be >= 1");
  }
  const std::uint32_t max_lanes =
      job.max_lanes != 0 ? job.max_lanes : options_.max_lanes;
  if (max_lanes == 0) {
    throw std::invalid_argument("dse::Session: effective max_lanes is 0");
  }
  const cost::DeviceCostDb* db = job.db;
  if (!db) {
    if (devices_.empty()) {
      throw std::invalid_argument(
          "dse::Session: the job names no database and the device table is "
          "empty — add_device() first");
    }
    if (job.device.empty()) {
      db = &devices_.find(device_order_.front())->second;
    } else {
      db = find_device(job.device);
      if (!db) {
        std::string known;
        for (const auto& name : device_order_) {
          if (!known.empty()) known += ", ";
          known += name;
        }
        throw std::invalid_argument("dse::Session: unknown device '" +
                                    job.device + "' (device table: " + known +
                                    ")");
      }
    }
  }
  return ResolvedJob{db, job.lower.get(), job.n, max_lanes};
}

std::uint32_t Session::max_participants() const {
  return resolve_threads(options_.num_threads,
                         std::numeric_limits<std::size_t>::max());
}

ThreadPool* Session::pool_for(std::uint32_t participants) {
  if (participants <= 1) return nullptr;
  if (!pool_) {
    // Lazily spawn the persistent workers at the session's full clamp
    // (the caller is participant 0, so capacity is one less); batches
    // narrower than the capacity simply draft fewer workers.
    pool_ = std::make_unique<ThreadPool>(max_participants() - 1);
  }
  return pool_.get();
}

struct Session::Batch {
  std::chrono::steady_clock::time_point t0;
  /// Per-job results in input order; a non-ok job presents no entries.
  std::vector<CampaignJobResult> jobs;
  /// Each job's first failing evaluation, for explore()'s rethrow.
  std::vector<std::exception_ptr> errors;
};

Session::Batch Session::evaluate(std::span<const Job> jobs) {
  Batch batch;
  batch.t0 = std::chrono::steady_clock::now();
  CostCache* cache = cache_.get();

  // Validate and enumerate every job before evaluating anything: a bad
  // job fails the batch up front instead of after most of the work.
  std::vector<ResolvedJob> resolved;
  resolved.reserve(jobs.size());
  std::vector<std::vector<frontend::Variant>> variants;
  variants.reserve(jobs.size());
  std::vector<std::size_t> offset(jobs.size() + 1, 0);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    resolved.push_back(resolve(jobs[j]));
    variants.push_back(frontend::enumerate_variants(
        resolved[j].n, resolved[j].max_lanes, jobs[j].include_seq));
    offset[j + 1] = offset[j] + variants[j].size();
  }
  const std::size_t total = offset.back();

  // Campaign-wide scheduling: one flattened work list over every job's
  // variants, drained by the shared pool, so a campaign of many small
  // jobs keeps every worker busy instead of parallelizing each job
  // alone. Evaluation runs in two waves. Wave 1 covers every *distinct*
  // evaluation — a design repeated across jobs (same database, same
  // variant key) is evaluated once, by the first job that enumerates it.
  // Wave 2 runs the repeats after the wave-1 barrier, so each hits by
  // variant key in the now-warm cache — exactly the hits the
  // old job-after-job loop produced, which keeps per-job cache stats
  // (and therefore campaign text output) byte-identical across thread
  // counts. Wave 1 groups one design's evaluations on different
  // databases (equal variant key, so equal design), in order of first
  // appearance: one worker runs a group in task order and lowers the
  // design once for all of them. Every cache interaction inside wave 1
  // is between tasks of one key, so one group, so the hit flags are the
  // job-by-job ones at any thread count. Key-less lowerers cannot be
  // deduplicated, grouped or memoized and stay single in wave 1, as does
  // every variant of a one-job batch (a sweep enumerates distinct lane
  // counts).
  std::vector<std::optional<cost::CostReport>> slots(total);
  std::vector<std::uint8_t> hits(total, 0);
  std::vector<EvalTask> distinct;  // wave 1 in task order
  distinct.reserve(total);
  std::vector<std::size_t> group_of;  // per distinct task
  group_of.reserve(total);
  std::size_t group_count = 0;
  std::map<VariantKey, std::size_t> group_by_key;
  Wave wave2;
  std::set<std::tuple<const cost::DeviceCostDb*, std::uint64_t, std::uint64_t>>
      seen;
  for (std::size_t j = 0; j < variants.size(); ++j) {
    for (std::size_t i = 0; i < variants[j].size(); ++i) {
      const EvalTask task{&variants[j][i], resolved[j].lower, resolved[j].db,
                          offset[j] + i, j};
      std::size_t group = group_count;
      if (cache && jobs.size() > 1) {
        if (const auto vk = resolved[j].lower->key(variants[j][i])) {
          // Jobs naming the same device-table entry share a DeviceCostDb
          // address, so (database, variant key) identifies the design; a
          // caller-supplied Job::db that merely equals another database
          // is treated as distinct, and its group's task order makes the
          // later one hit.
          if (!seen.insert({resolved[j].db, vk->key, vk->check}).second) {
            wave2.add_single(task);
            continue;
          }
          group = group_by_key.try_emplace(*vk, group_count).first->second;
        }
      }
      if (group == group_count) ++group_count;
      distinct.push_back(task);
      group_of.push_back(group);
    }
  }
  // Counting sort of the distinct tasks by group: groups in order of
  // first appearance, each group's members in task order.
  Wave wave1;
  wave1.bounds.assign(group_count + 1, 0);
  for (const std::size_t g : group_of) ++wave1.bounds[g + 1];
  for (std::size_t g = 0; g < group_count; ++g) {
    wave1.bounds[g + 1] += wave1.bounds[g];
  }
  wave1.tasks.resize(distinct.size());
  std::vector<std::size_t> fill(wave1.bounds.begin(), wave1.bounds.end() - 1);
  for (std::size_t k = 0; k < distinct.size(); ++k) {
    wave1.tasks[fill[group_of[k]]++] = distinct[k];
  }
  EvalContext ctx(jobs.size(), options_.cancel, batch.t0);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    ctx.deadline[j] = jobs[j].deadline_seconds;
    if (ctx.deadline[j] > 0) ctx.any_deadline = true;
    ctx.job_cancel[j] = jobs[j].cancel;
    if (ctx.job_cancel[j] != nullptr) ctx.any_job_cancel = true;
  }
  for (const Wave* wave : {&wave1, &wave2}) {
    if (wave->groups() == 0) continue;
    if (options_.cancel != nullptr && options_.cancel->cancelled()) break;
    const std::uint32_t participants =
        resolve_threads(options_.num_threads, wave->groups());
    evaluate_tasks(*wave, cache, pool_for(participants), participants, slots,
                   hits, ctx);
  }
  const double eval_seconds = seconds_since(batch.t0);

  // Per-job merge, stats, best and frontier in enumeration order —
  // byte-identical to running the jobs one at a time. A non-ok job
  // keeps its status (and cache stats for whatever it did evaluate) but
  // presents no entries: a partial sweep is not a result.
  batch.jobs.reserve(jobs.size());
  batch.errors.reserve(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    CampaignJobResult jr;
    jr.job = jobs[j];
    jr.status = finalize_status(ctx, j, slots, offset[j], offset[j + 1]);
    if (cache) {
      accumulate_stats(jr.result.cache_stats, hits, slots, offset[j],
                       offset[j + 1]);
    }
    if (jr.status.ok()) merge_sweep(jr.result, variants[j], slots, offset[j]);
    // Jobs were evaluated as one flattened batch; each reports the
    // batch's shared evaluation wall clock (see CampaignResult docs).
    jr.result.explore_seconds = eval_seconds;
    batch.jobs.push_back(std::move(jr));
    batch.errors.push_back(ctx.records[j].error);
  }
  return batch;
}

DseResult Session::explore(const Job& job) {
  Batch batch = evaluate(std::span<const Job>(&job, 1));
  CampaignJobResult& jr = batch.jobs.front();
  // Single-job semantics: a contained failure surfaces as the original
  // exception (so callers see exactly what the evaluation threw), an
  // expiry/cancel as its typed error.
  switch (jr.status.state) {
    case JobState::Failed: std::rethrow_exception(batch.errors.front());
    case JobState::TimedOut: throw DeadlineExceeded(job.deadline_seconds);
    case JobState::Cancelled: throw CancelledError();
    case JobState::Ok: break;
  }
  jr.result.explore_seconds = seconds_since(batch.t0);
  return std::move(jr.result);
}

TuneResult Session::tune(const Job& job) {
  const ResolvedJob r = resolve(job);
  return run_tune(r.n, *r.lower, *r.db, job.max_steps, r.max_lanes,
                  cache_.get(), options_.cancel, job.cancel,
                  job.deadline_seconds, std::chrono::steady_clock::now());
}

CampaignResult Session::run(const Campaign& campaign) {
  Batch batch = evaluate(campaign.jobs);
  CampaignResult out = merge_campaign(std::move(batch.jobs));
  out.campaign_seconds = seconds_since(batch.t0);
  return out;
}

CampaignResult merge_campaign(std::vector<CampaignJobResult> jobs) {
  CampaignResult out;
  out.jobs = std::move(jobs);
  // Merged frontier over every job's per-sweep frontier. Restricting the
  // candidates to per-job frontiers is lossless: a point dominated within
  // its own sweep is dominated by one of that sweep's frontier points
  // (dominance is a finite strict partial order), which competes here.
  std::vector<ParetoPoint> candidates;
  std::vector<CampaignParetoPoint> mapping;
  for (std::size_t j = 0; j < out.jobs.size(); ++j) {
    const DseResult& r = out.jobs[j].result;
    out.cache_stats.hits += r.cache_stats.hits;
    out.cache_stats.misses += r.cache_stats.misses;
    out.cache_stats.variant_hits += r.cache_stats.variant_hits;
    for (const ParetoPoint& p : r.pareto) {
      candidates.push_back(p);
      mapping.push_back(CampaignParetoPoint{j, p});
    }
  }
  const std::vector<bool> keep = detail::skyline_keep(candidates);
  for (std::size_t i = 0; i < mapping.size(); ++i) {
    if (keep[i]) out.pareto.push_back(mapping[i]);
  }
  return out;
}

}  // namespace tytra::dse
