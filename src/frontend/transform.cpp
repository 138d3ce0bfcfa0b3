#include "tytra/frontend/transform.hpp"

#include <algorithm>
#include <stdexcept>

namespace tytra::frontend {

std::string_view par_ann_name(ParAnn ann) {
  switch (ann) {
    case ParAnn::Pipe: return "pipe";
    case ParAnn::Par: return "par";
    case ParAnn::Seq: return "seq";
  }
  return "?";
}

Variant::Variant(std::vector<std::uint64_t> dims, std::vector<ParAnn> anns)
    : dims_(std::move(dims)), anns_(std::move(anns)) {
  if (dims_.empty() || dims_.size() != anns_.size()) {
    throw std::invalid_argument("Variant: dims/anns mismatch");
  }
  for (const auto d : dims_) {
    if (d == 0) throw std::invalid_argument("Variant: zero dimension");
  }
  // Thread parallelism must enclose pipelines (Fig. 7): par only on the
  // outermost levels.
  bool seen_inner = false;
  for (const auto a : anns_) {
    if (a != ParAnn::Par) seen_inner = true;
    else if (seen_inner) {
      throw std::invalid_argument(
          "Variant: par annotation inside a non-par level");
    }
  }
}

std::uint32_t Variant::lanes() const {
  std::uint64_t lanes = 1;
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    if (anns_[i] == ParAnn::Par) lanes *= dims_[i];
  }
  return static_cast<std::uint32_t>(lanes);
}

std::string Variant::describe() const {
  std::string out;
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    out += "map^" + std::string(par_ann_name(anns_[i])) + "[" +
           std::to_string(dims_[i]) + "] (";
  }
  out += "f";
  out += std::string(dims_.size(), ')');
  return out;
}

Variant baseline_variant(std::uint64_t n) {
  return Variant({n}, {ParAnn::Pipe});
}

Variant reshape_to(const Variant& v, std::uint64_t outer, ParAnn outer_ann) {
  if (outer == 0 || v.dims().back() % outer != 0) {
    throw std::invalid_argument(
        "reshape_to: outer size must divide the inner dimension (size "
        "preservation)");
  }
  std::vector<std::uint64_t> dims(v.dims().begin(), v.dims().end() - 1);
  std::vector<ParAnn> anns(v.anns().begin(), v.anns().end() - 1);
  dims.push_back(outer);
  anns.push_back(outer_ann);
  dims.push_back(v.dims().back() / outer);
  anns.push_back(v.anns().back());
  return Variant(std::move(dims), std::move(anns));
}

std::vector<std::uint64_t> divisors(std::uint64_t n, std::uint64_t cap) {
  if (n == 0) throw std::invalid_argument("divisors: n must be positive");
  std::vector<std::uint64_t> out;
  // Walk i up to min(cap, sqrt n): every divisor <= cap either is such an
  // i, or is the cofactor n/i of one (only possible when cap > sqrt n).
  // Each candidate is probed exactly once — the old ladder's double probe
  // of 2*lanes came from two overlapping scan ranges.
  // i <= n / i, not i * i <= n: the square overflows for n near 2^64.
  for (std::uint64_t i = 1; i <= cap && i <= n / i; ++i) {
    if (n % i != 0) continue;
    out.push_back(i);
    const std::uint64_t cofactor = n / i;
    if (cofactor != i && cofactor <= cap) out.push_back(cofactor);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Variant> enumerate_variants(std::uint64_t n,
                                        std::uint32_t max_lanes,
                                        bool include_seq) {
  std::vector<Variant> out;
  out.push_back(baseline_variant(n));
  for (const std::uint64_t lanes : divisors(n, max_lanes)) {
    if (lanes < 2) continue;
    out.push_back(reshape_to(baseline_variant(n), lanes, ParAnn::Par));
  }
  if (include_seq) out.push_back(Variant({n}, {ParAnn::Seq}));
  return out;
}

}  // namespace tytra::frontend
