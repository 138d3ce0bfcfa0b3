#include "tytra/dse/lowerer.hpp"

#include <stdexcept>

namespace tytra::dse {

namespace {

// Independent seeds for the two key halves (arbitrary odd constants,
// distinct from the structural-hash seeds so a variant key can never be
// confused with a structural digest).
constexpr std::uint64_t kVariantSeedKey = 0xa076'1d64'78bd'642fULL;
constexpr std::uint64_t kVariantSeedCheck = 0xe703'7ed1'a0b4'28dbULL;

}  // namespace

void hash_variant(HashBuilder& h, const frontend::Variant& v) {
  const auto& dims = v.dims();
  const auto& anns = v.anns();
  h.u64(dims.size());
  for (const std::uint64_t d : dims) h.u64(d);
  for (const frontend::ParAnn a : anns) h.u64(static_cast<std::uint64_t>(a));
}

KeyedLowerer::KeyedLowerer(std::string fingerprint, LowerFn fn)
    : fingerprint_(std::move(fingerprint)), fn_(std::move(fn)) {
  if (!fn_) throw std::invalid_argument("KeyedLowerer: null lowering function");
  // Pre-hash the fingerprint once: per-variant keying then costs only the
  // shape walk (a handful of hash mixes), which is what makes consulting
  // the variant-key table before lowering essentially free.
  seed_key_ = HashBuilder{kVariantSeedKey}.str(fingerprint_).value();
  seed_check_ = HashBuilder{kVariantSeedCheck}.str(fingerprint_).value();
}

std::optional<VariantKey> KeyedLowerer::key(const frontend::Variant& v) const {
  HashBuilder hk{seed_key_};
  HashBuilder hc{seed_check_};
  hash_variant(hk, v);
  hash_variant(hc, v);
  return VariantKey{hk.value(), hc.value()};
}

}  // namespace tytra::dse
