#pragma once

// Variant identity BEFORE lowering. A DSE sweep's warm path used to pay
// full IR materialization just to discover that the lowered module was
// already in the cost cache: the cache keyed on the lowered structure, so
// identity could only be resolved *after* the expensive work. A Lowerer
// makes identity a first-class part of lowering: `key(variant)` names the
// design a variant will lower to — kernel identity plus the variant's
// shape/annotation encoding — without building any IR, and `lower(variant)`
// produces the module only when a cache actually needs it. The variant
// key is the cost cache's only identity (see dse/cache.hpp): equal keys
// must lower to equal designs, which the key-soundness tests check over
// every built-in, generated and example workload.

#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "tytra/frontend/transform.hpp"
#include "tytra/ir/module.hpp"
#include "tytra/support/hash.hpp"

namespace tytra::ir {
/// Declared only so Lowerer::lower keeps its signature; no type defines
/// it, and every caller passes null.
class BuildArena;
}  // namespace tytra::ir

namespace tytra::dse {

/// Lowers a variant to a concrete TyTra-IR design (the kernel library
/// provides these for SOR/Hotspot/LavaMD; custom kernels supply their own).
/// With num_threads > 1 the function is invoked concurrently from worker
/// threads and must be safe to call in parallel (pure builders are).
using LowerFn = std::function<ir::Module(const frontend::Variant&)>;

/// 128-bit pre-lowering design identity: kernel identity + variant shape.
/// Both halves hash the same field stream under independent seeds, so a
/// memoization layer can treat key equality (with the check half verified)
/// as design identity — the same discipline as ir::StructuralDigest.
struct VariantKey {
  std::uint64_t key{0};
  std::uint64_t check{0};

  friend auto operator<=>(const VariantKey&, const VariantKey&) = default;
};

/// Streams a variant's shape/annotation encoding into a hash builder.
void hash_variant(HashBuilder& h, const frontend::Variant& v);

/// How a DSE engine turns variants into designs. `lower` is the expensive
/// materialization; `key` is the cheap identity that lets a warm cache
/// skip it entirely. Implementations must be safe to call concurrently.
class Lowerer {
 public:
  virtual ~Lowerer() = default;

  /// The identity of the design `lower(v)` would produce, or nullopt when
  /// this lowerer cannot promise one (then a cache lowers and costs the
  /// variant on every lookup and memoizes nothing). Two calls that return
  /// equal keys MUST lower to structurally identical modules.
  [[nodiscard]] virtual std::optional<VariantKey> key(
      const frontend::Variant& v) const = 0;

  /// Lowers `v` to IR. The second parameter is vestigial: it is always
  /// null, and implementations ignore it.
  [[nodiscard]] virtual ir::Module lower(const frontend::Variant& v,
                                         ir::BuildArena* = nullptr) const = 0;
};

/// Shim keeping std::function callers working: lowers through the wrapped
/// LowerFn and promises no key, so a cache lowers and costs every lookup
/// and stores nothing.
class FnLowerer final : public Lowerer {
 public:
  explicit FnLowerer(LowerFn fn) : fn_(std::move(fn)) {}

  [[nodiscard]] std::optional<VariantKey> key(
      const frontend::Variant&) const override {
    return std::nullopt;
  }
  [[nodiscard]] ir::Module lower(const frontend::Variant& v,
                                 ir::BuildArena* = nullptr) const override {
    return fn_(v);
  }

 private:
  LowerFn fn_;
};

/// A lowerer with a declared identity. `fingerprint` must pin every input
/// of the lowering function other than the variant itself — the kernel
/// name and every configuration field that shapes the produced IR (grid
/// dims, NKI, element type, execution form, ...). Two KeyedLowerers with
/// equal fingerprints must lower equal variants to structurally identical
/// modules; the key-soundness tests check that promise against the
/// printed IR and the structural digest.
class KeyedLowerer final : public Lowerer {
 public:
  KeyedLowerer(std::string fingerprint, LowerFn fn);

  [[nodiscard]] std::optional<VariantKey> key(
      const frontend::Variant& v) const override;
  [[nodiscard]] ir::Module lower(const frontend::Variant& v,
                                 ir::BuildArena* = nullptr) const override {
    return fn_(v);
  }

  [[nodiscard]] const std::string& fingerprint() const { return fingerprint_; }

 private:
  std::string fingerprint_;
  std::uint64_t seed_key_{0};    ///< fingerprint pre-hashed, primary seed
  std::uint64_t seed_check_{0};  ///< fingerprint pre-hashed, check seed
  LowerFn fn_;
};

}  // namespace tytra::dse
