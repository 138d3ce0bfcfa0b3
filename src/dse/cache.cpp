#include "tytra/dse/cache.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "tytra/support/failpoint.hpp"
#include "tytra/support/hash.hpp"
#include "tytra/support/thread_annotations.hpp"

namespace tytra::dse {

namespace {

std::size_t resolve_shards(std::size_t requested) {
  if (requested > 0) return requested;
  return std::max<std::size_t>(CostCache::kMinDefaultShards,
                               std::thread::hardware_concurrency());
}

/// Open-addressed hash table with lock-free reads. Slots hold atomic
/// pointers to heap-allocated immutable nodes; a node, once published
/// with a release store, is never mutated, moved or freed until clear()
/// (so a reader can dereference whatever it loads). Inserts serialize on
/// a per-shard mutex. Growth publishes a bigger slot array and RETAINS
/// the old one: a reader still probing a retired array sees a consistent
/// (if stale) view, at worst misses an entry that only the newer array
/// holds, and the resulting recompute-and-insert finds the resident node
/// under the mutex. The identity is the full (key, check) 128-bit pair —
/// probing continues past a slot whose check half disagrees, so two
/// designs colliding on the 64-bit key coexist instead of thrashing.
class AtomicTable {
 public:
  struct Node {
    std::uint64_t key;
    std::uint64_t check;
    cost::CostReport report;
  };

  explicit AtomicTable(std::size_t shards) : shards_(shards) {}

  /// Lock-free: one acquire load of the live slot array, then a linear
  /// probe of acquire-loaded slots. Returns null on a miss.
  const Node* find(std::uint64_t key, std::uint64_t check) const {
    const Shard& shard = shards_[key % shards_.size()];
    const Slots* t = shard.live.load(std::memory_order_acquire);
    return probe(*t, key, check);
  }

  /// Publishes (key, check, report) unless an equal identity is already
  /// resident — another writer won the race, or the caller probed a
  /// retired slot array.
  void insert(std::uint64_t key, std::uint64_t check, cost::CostReport report) {
    Shard& shard = shards_[key % shards_.size()];
    MutexLock lock(shard.mu);
    Slots* t = shard.live.load(std::memory_order_relaxed);
    if (probe(*t, key, check) != nullptr) return;
    // Keep load factor under 70% so probe chains always end on a null.
    if ((shard.size + 1) * 10 > t->slot.size() * 7) t = grow(shard, t);
    shard.nodes.push_back(
        std::make_unique<Node>(Node{key, check, std::move(report)}));
    publish(*t, shard.nodes.back().get());
    ++shard.size;
  }

  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for (const Shard& s : shards_) {
      MutexLock lock(s.mu);
      n += s.size;
    }
    return n;
  }

  /// Visits every resident node, one shard at a time under that shard's
  /// insert lock. Safe concurrent with cost(): readers never take the
  /// lock, and inserts landing in already-visited shards are simply not
  /// part of this sample.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Shard& s : shards_) {
      MutexLock lock(s.mu);
      for (const auto& node : s.nodes) fn(*node);
    }
  }

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  /// Frees every node and slot array. Requires external quiescence: a
  /// concurrent lock-free reader could still be probing the freed memory.
  void clear() {
    for (Shard& s : shards_) {
      MutexLock lock(s.mu);
      auto fresh = std::make_unique<Slots>(kInitialSlots);
      s.live.store(fresh.get(), std::memory_order_release);
      s.tables.clear();
      s.tables.push_back(std::move(fresh));
      s.nodes.clear();
      s.size = 0;
    }
  }

 private:
  static constexpr std::size_t kInitialSlots = 64;  // power of two

  struct Slots {
    explicit Slots(std::size_t n) : slot(n) {}  // atomics value-init to null
    std::vector<std::atomic<Node*>> slot;
  };

  struct Shard {
    Shard() {
      tables.push_back(std::make_unique<Slots>(kInitialSlots));
      live.store(tables.back().get(), std::memory_order_relaxed);
    }
    std::atomic<Slots*> live{nullptr};
    mutable tytra::Mutex mu;            ///< guards everything below
    std::size_t size TYTRA_GUARDED_BY(mu){0};
    /// Every slot-array generation ever published. Retired arrays are
    /// kept until clear()/destruction so readers holding them stay safe;
    /// geometric growth bounds the total at ~2x the live array.
    std::vector<std::unique_ptr<Slots>> tables TYTRA_GUARDED_BY(mu);
    std::vector<std::unique_ptr<Node>> nodes TYTRA_GUARDED_BY(mu);  ///< owns the entries
  };

  static const Node* probe(const Slots& t, std::uint64_t key,
                           std::uint64_t check) {
    const std::size_t mask = t.slot.size() - 1;
    for (std::size_t i = key & mask;; i = (i + 1) & mask) {
      const Node* n = t.slot[i].load(std::memory_order_acquire);
      if (n == nullptr) return nullptr;
      if (n->key == key && n->check == check) return n;
    }
  }

  static void publish(Slots& t, Node* node) {
    const std::size_t mask = t.slot.size() - 1;
    for (std::size_t i = node->key & mask;; i = (i + 1) & mask) {
      if (t.slot[i].load(std::memory_order_relaxed) == nullptr) {
        t.slot[i].store(node, std::memory_order_release);
        return;
      }
    }
  }

  Slots* grow(Shard& shard, Slots* old) TYTRA_REQUIRES(shard.mu) {
    auto bigger = std::make_unique<Slots>(old->slot.size() * 2);
    for (const auto& s : old->slot) {
      Node* n = s.load(std::memory_order_relaxed);
      if (n != nullptr) publish(*bigger, n);
    }
    Slots* fresh = bigger.get();
    shard.tables.push_back(std::move(bigger));
    // Publish the bigger array only after its slots are fully written;
    // readers acquire-load `live` and synchronize with this store.
    shard.live.store(fresh, std::memory_order_release);
    return fresh;
  }

  std::vector<Shard> shards_;
};

}  // namespace

struct CostCache::Impl {
  /// Padded per-shard counters so hit accounting does not ping-pong one
  /// cache line between warm workers.
  struct alignas(64) Counter {
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
  };

  explicit Impl(std::size_t shards) : table(shards), counters(shards) {}

  Counter& counter(std::uint64_t key) { return counters[key % counters.size()]; }

  AtomicTable table;
  std::vector<Counter> counters;

#ifndef NDEBUG
  /// Debug-build enforcement of the clear()/load() quiescence contract:
  /// cost() calls register here, and the destructive operations abort
  /// with a diagnostic when any are in flight instead of silently racing
  /// a lock-free reader against freed entries.
  std::atomic<int> active_readers{0};

  struct ReaderGuard {
    explicit ReaderGuard(std::atomic<int>& count) : count_(count) {
      count_.fetch_add(1, std::memory_order_acq_rel);
    }
    ~ReaderGuard() { count_.fetch_sub(1, std::memory_order_acq_rel); }
    std::atomic<int>& count_;
  };
#endif

  void require_quiescent(const char* operation) const {
#ifndef NDEBUG
    const int readers = active_readers.load(std::memory_order_acquire);
    if (readers != 0) {
      std::fprintf(stderr,
                   "tytra: fatal: CostCache::%s() called with %d cost() "
                   "call(s) in flight; %s() frees entries lock-free readers "
                   "may still be probing and requires quiescence (see "
                   "include/tytra/dse/cache.hpp)\n",
                   operation, readers, operation);
      std::abort();
    }
#else
    (void)operation;
#endif
  }
};

CostCache::CostCache(std::size_t shards)
    : impl_(std::make_unique<Impl>(resolve_shards(shards))) {}

CostCache::~CostCache() = default;

cost::CostReport CostCache::cost(const frontend::Variant& variant,
                                 const Lowerer& lowerer,
                                 const cost::DeviceCostDb& db, bool* was_hit) {
#ifndef NDEBUG
  Impl::ReaderGuard guard(impl_->active_readers);
#endif
  const std::optional<VariantKey> vk = lowerer.key(variant);
  VariantKey full{};
  if (vk) {
    // Fold the device fingerprint into both halves: the same variant
    // costed against different calibrations must not cross-hit.
    const std::uint64_t dev = db.fingerprint();
    full = VariantKey{HashBuilder{}.u64(dev).u64(vk->key).value(),
                      HashBuilder{}.u64(dev).u64(vk->check).value()};
    if (const auto* node = impl_->table.find(full.key, full.check)) {
      impl_->counter(full.key).hits.fetch_add(1, std::memory_order_relaxed);
      if (was_hit) *was_hit = true;
      return node->report;
    }
  }
  impl_->counter(full.key).misses.fetch_add(1, std::memory_order_relaxed);
  if (was_hit) *was_hit = false;
  // Cost outside the lock: the model run dominates, and concurrent misses
  // on the same key merely compute the same report twice.
  cost::CostReport report = cost::cost_design(lowerer.lower(variant), db);
  // A key-less lowerer names no design, so there is nothing to insert. A
  // failed insert (the `cache.insert` failpoint stands in for
  // allocation/grow failure) degrades to a lost memoization, never a lost
  // or torn result: the report was already computed, and an entry is only
  // ever published whole.
  if (vk && !failpoint::fire("cache.insert")) {
    impl_->table.insert(full.key, full.check, report);
  }
  return report;
}

CacheStats CostCache::stats() const {
  CacheStats out;
  for (const Impl::Counter& c : impl_->counters) {
    out.hits += c.hits.load(std::memory_order_relaxed);
    out.misses += c.misses.load(std::memory_order_relaxed);
  }
  out.variant_hits = out.hits;
  return out;
}

std::size_t CostCache::size() const { return impl_->table.size(); }

std::size_t CostCache::shard_count() const {
  return impl_->table.shard_count();
}

void CostCache::clear() {
  impl_->require_quiescent("clear");
  impl_->table.clear();
  for (Impl::Counter& c : impl_->counters) {
    c.hits.store(0, std::memory_order_relaxed);
    c.misses.store(0, std::memory_order_relaxed);
  }
}

void CostCache::dump(binio::Encoder& out) const {
  impl_->table.for_each([&](const AtomicTable::Node& node) {
    out.u64(node.key);
    out.u64(node.check);
    cost::save_report(out, node.report);
  });
}

Result<std::size_t> CostCache::load(binio::Decoder& in) {
  impl_->require_quiescent("load");
  std::size_t count = 0;
  while (in.ok() && in.remaining() > 0) {
    const std::uint64_t key = in.u64();
    const std::uint64_t check = in.u64();
    cost::CostReport report = cost::load_report(in);
    if (!in.ok()) break;
    impl_->table.insert(key, check, std::move(report));
    ++count;
  }
  if (!in.ok()) return make_error("cost-cache snapshot: " + in.error());
  return count;
}

}  // namespace tytra::dse
