#include "tytra/dse/cache.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "tytra/ir/structural_hash.hpp"
#include "tytra/support/failpoint.hpp"
#include "tytra/support/hash.hpp"
#include "tytra/support/thread_annotations.hpp"

namespace tytra::dse {

namespace {

/// The 128-bit identity of a (design, database) pair, streamed: the
/// device fingerprint (`dev`, computed once per database) seeds both
/// digest halves, then the module structure is walked once into each. No
/// strings are built, no parameters are extracted — one allocation-free
/// traversal.
ir::StructuralDigest design_digest(const ir::Module& module,
                                   std::uint64_t dev) {
  const ir::StructuralDigest structure = ir::structural_digest(module);
  return {HashBuilder{}.u64(dev).u64(structure.key).value(),
          HashBuilder{}.u64(dev).u64(structure.check).value()};
}

}  // namespace

std::uint64_t design_key(const ir::Module& module, const cost::DeviceCostDb& db) {
  return design_digest(module, db.fingerprint()).key;
}

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
template <typename V>
class AtomicTable {
 public:
  struct Node {
    std::uint64_t key;
    std::uint64_t check;
    V value;
  };

  explicit AtomicTable(std::size_t shards) : shards_(shards) {}

  /// Lock-free: one acquire load of the live slot array, then a linear
  /// probe of acquire-loaded slots. Returns null on a miss.
  const Node* find(std::uint64_t key, std::uint64_t check) const {
    const Shard& shard = shards_[key % shards_.size()];
    const Slots* t = shard.live.load(std::memory_order_acquire);
    return probe(*t, key, check);
  }

  /// Publishes (key, check, value) unless an equal identity is already
  /// resident — another writer won the race, or the caller probed a
  /// retired slot array — and returns the resident node either way.
  const Node* insert(std::uint64_t key, std::uint64_t check, V value) {
    Shard& shard = shards_[key % shards_.size()];
    MutexLock lock(shard.mu);
    Slots* t = shard.live.load(std::memory_order_relaxed);
    if (const Node* resident = probe(*t, key, check)) return resident;
    // Keep load factor under 70% so probe chains always end on a null.
    if ((shard.size + 1) * 10 > t->slot.size() * 7) t = grow(shard, t);
    shard.nodes.push_back(
        std::make_unique<Node>(Node{key, check, std::move(value)}));
    Node* node = shard.nodes.back().get();
    publish(*t, node);
    ++shard.size;
    return node;
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
  /// Structural level: design digest -> the one stored report per design.
  using StructuralTable = AtomicTable<cost::CostReport>;
  using StructuralNode = StructuralTable::Node;

  /// Variant level: variant key -> the structural entry its design
  /// resolved to. Structural nodes are immutable and live until clear(),
  /// which drops both levels together, so a variant hit is still one
  /// probe (plus a pointer hop) and a design's report is never stored
  /// twice. The node's (key, check) is the digest debug builds
  /// cross-check a hit against.
  using VariantTable = AtomicTable<const StructuralNode*>;

  /// Padded per-shard counters so hit accounting does not ping-pong one
  /// cache line between warm workers.
  struct alignas(64) Counter {
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> variant_hits{0};
  };

  explicit Impl(std::size_t shards)
      : structural(shards), variant(shards), counters(shards) {}

  Counter& counter(std::uint64_t key) { return counters[key % counters.size()]; }

  /// Structural-level lookup with the digest already in hand, so the
  /// variant-level caller walks the module once. `resident` (when
  /// non-null) receives the entry now holding the design's report: the
  /// one found, the one inserted, or null when the insert failed.
  cost::CostReport cost_structural(const ir::Module& module,
                                   const cost::DeviceCostDb& db,
                                   const ir::StructuralDigest& digest,
                                   bool* was_hit,
                                   const StructuralNode** resident = nullptr);

  StructuralTable structural;
  VariantTable variant;
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

cost::CostReport CostCache::Impl::cost_structural(
    const ir::Module& module, const cost::DeviceCostDb& db,
    const ir::StructuralDigest& digest, bool* was_hit,
    const StructuralNode** resident) {
  if (const StructuralNode* node = structural.find(digest.key, digest.check)) {
    counter(digest.key).hits.fetch_add(1, std::memory_order_relaxed);
    if (was_hit) *was_hit = true;
    if (resident) *resident = node;
    return node->value;
  }
  counter(digest.key).misses.fetch_add(1, std::memory_order_relaxed);
  if (was_hit) *was_hit = false;
  // Cost outside the lock: the model run dominates, and concurrent misses
  // on the same key merely compute the same report twice. The summary is
  // built once and shared across every model stage.
  const ir::AnalysisSummary summary = ir::summarize(module);
  cost::CostReport report = cost::cost_design(module, db, summary);
  // A failed insert (the `cache.insert` failpoint stands in for
  // allocation/grow failure) degrades to a lost memoization, never a lost
  // or torn result: the report was already computed, and an entry is only
  // ever published whole.
  const StructuralNode* node = nullptr;
  if (!failpoint::fire("cache.insert")) {
    node = structural.insert(digest.key, digest.check, report);
  }
  if (resident) *resident = node;
  return report;
}

cost::CostReport CostCache::cost(const ir::Module& module,
                                 const cost::DeviceCostDb& db, bool* was_hit) {
#ifndef NDEBUG
  Impl::ReaderGuard guard(impl_->active_readers);
#endif
  return impl_->cost_structural(module, db,
                                design_digest(module, db.fingerprint()),
                                was_hit);
}

cost::CostReport CostCache::cost(const frontend::Variant& variant,
                                 const Lowerer& lowerer,
                                 const cost::DeviceCostDb& db, HitLevel* level,
                                 ir::BuildArena* arena) {
#ifndef NDEBUG
  Impl::ReaderGuard guard(impl_->active_readers);
#endif
  const std::uint64_t dev = db.fingerprint();
  const std::optional<VariantKey> vk = lowerer.key(variant);
  VariantKey full{};
  if (vk) {
    // Fold the device fingerprint into both halves: the same variant
    // costed against different calibrations must not cross-hit.
    full = VariantKey{HashBuilder{}.u64(dev).u64(vk->key).value(),
                      HashBuilder{}.u64(dev).u64(vk->check).value()};
    if (const auto* node = impl_->variant.find(full.key, full.check)) {
      const Impl::StructuralNode& design = *node->value;
#ifndef NDEBUG
      // Two-level cross-check: the lowerer's identity promise must agree
      // with the authoritative structural digest the key resolved to.
      // Debug builds pay the lowering this level exists to skip.
      {
        ir::Module check_module = lowerer.lower(variant, arena);
        assert((design_digest(check_module, dev) ==
                ir::StructuralDigest{design.key, design.check}));
        if (arena) arena->recycle(std::move(check_module));
      }
#endif
      Impl::Counter& c = impl_->counter(full.key);
      c.hits.fetch_add(1, std::memory_order_relaxed);
      c.variant_hits.fetch_add(1, std::memory_order_relaxed);
      if (level) *level = HitLevel::Variant;
      return design.value;
    }
  }
  // Variant-key miss (or key-less lowerer): lower and resolve at the
  // structural level, then memoize the key so the next warm lookup skips
  // lowering entirely. The key refers to the structural entry, so it is
  // only inserted when that entry exists.
  ir::Module module = lowerer.lower(variant, arena);
  bool structural_hit = false;
  const Impl::StructuralNode* design = nullptr;
  cost::CostReport report =
      impl_->cost_structural(module, db, design_digest(module, dev),
                             &structural_hit, &design);
  if (vk && design != nullptr && !failpoint::fire("cache.insert")) {
    impl_->variant.insert(full.key, full.check, design);
  }
  if (arena) arena->recycle(std::move(module));
  if (level) *level = structural_hit ? HitLevel::Structural : HitLevel::Miss;
  return report;
}

CacheStats CostCache::stats() const {
  CacheStats out;
  for (const Impl::Counter& c : impl_->counters) {
    out.hits += c.hits.load(std::memory_order_relaxed);
    out.misses += c.misses.load(std::memory_order_relaxed);
    out.variant_hits += c.variant_hits.load(std::memory_order_relaxed);
  }
  return out;
}

std::size_t CostCache::size() const { return impl_->structural.size(); }

std::size_t CostCache::variant_size() const { return impl_->variant.size(); }

std::size_t CostCache::shard_count() const {
  return impl_->structural.shard_count();
}

void CostCache::clear() {
  impl_->require_quiescent("clear");
  impl_->structural.clear();
  impl_->variant.clear();
  for (Impl::Counter& c : impl_->counters) {
    c.hits.store(0, std::memory_order_relaxed);
    c.misses.store(0, std::memory_order_relaxed);
    c.variant_hits.store(0, std::memory_order_relaxed);
  }
}

void CostCache::dump(binio::Encoder& structural_out,
                     binio::Encoder& variant_out) const {
  // Variant level first: a variant entry is published only after its
  // structural entry, so under concurrent inserts every sampled variant
  // entry's design is in the structural sample taken after it.
  impl_->variant.for_each([&](const auto& node) {
    variant_out.u64(node.key);
    variant_out.u64(node.check);
    variant_out.u64(node.value->key);
    variant_out.u64(node.value->check);
  });
  impl_->structural.for_each([&](const auto& node) {
    structural_out.u64(node.key);
    structural_out.u64(node.check);
    cost::save_report(structural_out, node.value);
  });
}

Result<CostCache::LoadCounts> CostCache::load(binio::Decoder& structural_in,
                                              binio::Decoder& variant_in) {
  impl_->require_quiescent("load");
  LoadCounts counts;
  while (structural_in.ok() && structural_in.remaining() > 0) {
    const std::uint64_t key = structural_in.u64();
    const std::uint64_t check = structural_in.u64();
    cost::CostReport report = cost::load_report(structural_in);
    if (!structural_in.ok()) break;
    impl_->structural.insert(key, check, std::move(report));
    ++counts.structural;
  }
  if (!structural_in.ok()) {
    return make_error("cost-cache snapshot (structural level): " +
                      structural_in.error());
  }
  // The structural level is complete, so every variant entry's design
  // reference resolves against it; one that does not is corruption.
  while (variant_in.ok() && variant_in.remaining() > 0) {
    const std::uint64_t key = variant_in.u64();
    const std::uint64_t check = variant_in.u64();
    const std::uint64_t ref_key = variant_in.u64();
    const std::uint64_t ref_check = variant_in.u64();
    if (!variant_in.ok()) break;
    const Impl::StructuralNode* design =
        impl_->structural.find(ref_key, ref_check);
    if (design == nullptr) {
      variant_in.fail("variant entry refers to a design missing from the "
                      "structural level");
      break;
    }
    impl_->variant.insert(key, check, design);
    ++counts.variant;
  }
  if (!variant_in.ok()) {
    return make_error("cost-cache snapshot (variant level): " +
                      variant_in.error());
  }
  return counts;
}

}  // namespace tytra::dse
