#include "tytra/dse/cache.hpp"

#include <array>
#include <atomic>
#include <map>
#include <utility>

#include "tytra/support/failpoint.hpp"
#include "tytra/support/hash.hpp"
#include "tytra/support/thread_annotations.hpp"

namespace tytra::dse {

/// Sixteen shards, each one lock and one ordered map. The map key is the
/// full (key, check) 128-bit pair, so two designs colliding on the 64-bit
/// key coexist instead of thrashing; the order makes dump() bytes depend
/// only on the set of keys.
struct CostCache::Impl {
  static constexpr std::size_t kShards = 16;

  /// One cache line per shard, so workers locking neighbouring shards do
  /// not contend on the same line.
  struct alignas(64) Shard {
    mutable tytra::Mutex mu;
    std::map<VariantKey, cost::CostReport> entries TYTRA_GUARDED_BY(mu);
  };

  Shard& shard(const VariantKey& k) { return shards[k.key % kShards]; }

  std::array<Shard, kShards> shards;
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
};

CostCache::CostCache() : impl_(std::make_unique<Impl>()) {}

CostCache::~CostCache() = default;

cost::CostReport CostCache::cost(const frontend::Variant& variant,
                                 const Lowerer& lowerer,
                                 const cost::DeviceCostDb& db, bool* was_hit,
                                 SharedLowering* shared) {
  const std::optional<VariantKey> vk = lowerer.key(variant);
  VariantKey full{};
  if (vk) {
    // Fold the device fingerprint into both halves: the same variant
    // costed against different calibrations must not cross-hit.
    const std::uint64_t dev = db.fingerprint();
    full = VariantKey{HashBuilder{}.u64(dev).u64(vk->key).value(),
                      HashBuilder{}.u64(dev).u64(vk->check).value()};
    Impl::Shard& shard = impl_->shard(full);
    MutexLock lock(shard.mu);
    const auto it = shard.entries.find(full);
    if (it != shard.entries.end()) {
      impl_->hits.fetch_add(1, std::memory_order_relaxed);
      if (was_hit) *was_hit = true;
      return it->second;
    }
  }
  impl_->misses.fetch_add(1, std::memory_order_relaxed);
  if (was_hit) *was_hit = false;
  // Cost outside the lock: the model run dominates, and concurrent misses
  // on the same key merely compute the same report twice.
  cost::CostReport report;
  if (shared == nullptr) {
    report = cost::cost_design(lowerer.lower(variant), db);
  } else {
    if (!shared->module) {
      ir::Module module = lowerer.lower(variant);
      shared->summary = ir::summarize(module);
      shared->module = std::move(module);
    }
    report = cost::cost_design(*shared->module, db, shared->summary);
  }
  // A key-less lowerer names no design, so there is nothing to insert. A
  // failed insert (the `cache.insert` failpoint stands in for allocation
  // failure) degrades to a lost memoization, never a lost or torn result:
  // the report was already computed, and an entry is only ever stored whole.
  if (vk && !failpoint::fire("cache.insert")) {
    Impl::Shard& shard = impl_->shard(full);
    MutexLock lock(shard.mu);
    shard.entries.try_emplace(full, report);
  }
  return report;
}

CacheStats CostCache::stats() const {
  CacheStats out;
  out.hits = impl_->hits.load(std::memory_order_relaxed);
  out.misses = impl_->misses.load(std::memory_order_relaxed);
  out.variant_hits = out.hits;
  return out;
}

std::size_t CostCache::size() const {
  std::size_t n = 0;
  for (const Impl::Shard& s : impl_->shards) {
    MutexLock lock(s.mu);
    n += s.entries.size();
  }
  return n;
}

void CostCache::clear() {
  for (Impl::Shard& s : impl_->shards) {
    MutexLock lock(s.mu);
    s.entries.clear();
  }
  impl_->hits.store(0, std::memory_order_relaxed);
  impl_->misses.store(0, std::memory_order_relaxed);
}

void CostCache::dump(binio::Encoder& out) const {
  for (const Impl::Shard& s : impl_->shards) {
    MutexLock lock(s.mu);
    for (const auto& [k, report] : s.entries) {
      out.u64(k.key);
      out.u64(k.check);
      cost::save_report(out, report);
    }
  }
}

Result<std::size_t> CostCache::load(binio::Decoder& in) {
  std::size_t count = 0;
  while (in.ok() && in.remaining() > 0) {
    const VariantKey k{in.u64(), in.u64()};
    cost::CostReport report = cost::load_report(in);
    if (!in.ok()) break;
    Impl::Shard& shard = impl_->shard(k);
    MutexLock lock(shard.mu);
    shard.entries.try_emplace(k, std::move(report));
    ++count;
  }
  if (!in.ok()) return make_error("cost-cache snapshot: " + in.error());
  return count;
}

}  // namespace tytra::dse
