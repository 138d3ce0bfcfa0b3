#pragma once

// Memoizing cost-model cache for repeated sweeps. The explorer, the
// tuner and the benches all evaluate overlapping variant sets (tuner
// trajectories revisit sweep points; bench reruns and multi-device
// surveys re-cost whole families); one shared CostCache makes every
// repeat evaluation a lookup instead of a cost-model run.
//
// Identity is the variant key. A lowerer that can name its designs
// (dse::KeyedLowerer) keys each variant by kernel identity + variant shape,
// and the cache folds in the device fingerprint — all BEFORE any IR exists.
// A hit is one hash probe and returns the memoized report without
// lowering; a miss lowers, costs and inserts. An entry is (key, check,
// report): the 128-bit key guards lookups against 64-bit collisions, and
// nothing else is stored. A key-less lowerer (dse::FnLowerer) cannot be
// memoized: every lookup lowers and costs, counts one miss and inserts
// nothing. Tests, not lookups, pin that equal keys mean equal designs.
//
// The table is 16 fixed shards, each a mutex and an ordered map, so a hit
// is a shard lock and a map lookup. The lowering and the cost-model run
// of a miss always happen outside the lock. Every operation, clear() and
// load() included, is safe to run concurrently with cost().

#include <cstdint>
#include <memory>
#include <optional>

#include "tytra/cost/report.hpp"
#include "tytra/dse/lowerer.hpp"
#include "tytra/ir/analysis.hpp"
#include "tytra/support/binio.hpp"
#include "tytra/target/device.hpp"

namespace tytra::dse {

struct CacheStats {
  /// Lookups served from the cache. Every hit is a variant-key hit, so
  /// `variant_hits == hits`; both are kept because the renderers print
  /// both.
  std::uint64_t hits{0};
  std::uint64_t misses{0};
  std::uint64_t variant_hits{0};

  [[nodiscard]] std::uint64_t lookups() const { return hits + misses; }
};

/// The device fingerprint folded into every key. It is computed once per
/// database (cost::DeviceCostDb::fingerprint()); this spelling keeps the
/// value reachable from a bare DeviceDesc.
using cost::device_fingerprint;

/// One design's lowering, shared by the misses of that design on several
/// databases: the first miss that lowers fills it, and each later miss
/// costs the same module and summary on its own database instead of
/// lowering again. A lowering that throws leaves it empty.
struct SharedLowering {
  std::optional<ir::Module> module;
  ir::AnalysisSummary summary;
};

/// Thread-safe memoization of cost::cost_design, keyed by variant.
class CostCache {
 public:
  /// An empty cache of 16 shards; the shard count is fixed.
  CostCache();
  ~CostCache();

  CostCache(const CostCache&) = delete;
  CostCache& operator=(const CostCache&) = delete;

  /// Returns the memoized report for `variant` as `lowerer` names it on
  /// `db`, or lowers, costs and remembers it. A key-less lowerer lowers
  /// and costs every time and stores nothing. Safe to call concurrently;
  /// a hit is a shard lock and a map lookup. When `was_hit` is non-null
  /// it receives this lookup's outcome (for per-sweep accounting
  /// independent of the global counters).
  ///
  /// A caller costing one design on several databases passes the same
  /// `shared` to each lookup, in order: the first miss lowers and
  /// summarizes once, and every later miss reuses that module and summary
  /// through cost::cost_design(module, db, summary). The caller owns
  /// `shared` and must not use it from two threads at once. Only a caller
  /// whose lowerers give the lookups equal variant keys may share one
  /// (equal keys mean equal designs). Hits never read it.
  cost::CostReport cost(const frontend::Variant& variant, const Lowerer& lowerer,
                        const cost::DeviceCostDb& db, bool* was_hit = nullptr,
                        SharedLowering* shared = nullptr);

  [[nodiscard]] CacheStats stats() const;
  /// Number of memoized designs.
  [[nodiscard]] std::size_t size() const;
  /// Same as size(): one entry per memoized variant key.
  [[nodiscard]] std::size_t variant_size() const { return size(); }

  /// Drops every entry and resets the counters, locking one shard at a
  /// time. Safe to run concurrently with cost(): a lookup in flight either
  /// sees its entry or misses and recomputes the same report.
  void clear();

  /// Serializes every entry into a snapshot payload stream as (key,
  /// check, report), back to back until the end of the payload: shard by
  /// shard, each in key order, so the bytes depend only on the set of
  /// keys. There is no count prefix, so a dump concurrent with inserts is
  /// merely a consistent-per-shard sample. Keys are stored as-is — the
  /// device fingerprint is already folded in, which is what makes
  /// persisted entries self-invalidating: after a device or key-scheme
  /// change the old keys are simply never probed.
  void dump(binio::Encoder& out) const;

  /// Restores entries produced by dump() and returns how many; a key
  /// already resident keeps its entry. Safe to run concurrently with
  /// cost(), like clear(). On a decode error the cache may hold a prefix
  /// of the snapshot's entries — every one individually valid — and the
  /// caller decides whether to keep or clear() them. Never throws; never
  /// trusts lengths or enum values.
  Result<std::size_t> load(binio::Decoder& in);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tytra::dse
