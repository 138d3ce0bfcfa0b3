#pragma once

// The type-transformation front-end (paper §II): program variants are
// generated from a baseline functional description by reshaping the
// NDRange vector in an order- and size-preserving way and annotating the
// resulting map nest with parallelism patterns (pipe / par / seq).
//
//   pps  : Vect (im*jm*km) t                      -- baseline
//   ppst : Vect km (Vect (im*jm) t)               -- reshapeTo km pps
//   pst  = map^par (map^pipe p_sor) ppst          -- new program
//
// Correct-by-construction is enforced: reshapes must preserve the total
// size (checked at construction).

#include <cstdint>
#include <string>
#include <vector>

#include "tytra/ir/module.hpp"

namespace tytra::frontend {

/// Parallelism annotation on one map level.
enum class ParAnn : std::uint8_t { Pipe, Par, Seq };

std::string_view par_ann_name(ParAnn ann);

/// A program variant: the reshaped vector type (dims, outermost first)
/// and the annotation of the map at each nesting level.
class Variant {
 public:
  /// Throws std::invalid_argument unless dims are non-zero, anns matches
  /// dims in length, and at most the outer level is `par` (the supported
  /// configuration set of Fig. 7).
  Variant(std::vector<std::uint64_t> dims, std::vector<ParAnn> anns);

  [[nodiscard]] const std::vector<std::uint64_t>& dims() const { return dims_; }
  [[nodiscard]] const std::vector<ParAnn>& anns() const { return anns_; }

  /// KNL: the product of par-annotated dimensions (1 when none).
  [[nodiscard]] std::uint32_t lanes() const;
  /// Human-readable form, e.g. "map^par[4] (map^pipe[262144] f)".
  [[nodiscard]] std::string describe() const;

 private:
  std::vector<std::uint64_t> dims_;
  std::vector<ParAnn> anns_;
};

/// The baseline program: a single pipelined map over the whole NDRange.
Variant baseline_variant(std::uint64_t n);

/// reshapeTo: splits the (single remaining) outer dimension into
/// `outer` x (size/outer) and annotates the new outer level.
/// Throws std::invalid_argument when `outer` does not divide the size.
Variant reshape_to(const Variant& v, std::uint64_t outer, ParAnn outer_ann);

/// All divisors of `n` that are <= `cap`, ascending. One O(sqrt n)
/// enumeration (O(min(cap, sqrt n)) when cap is small) — the shared
/// divisor source of the variant enumerator and the tuner's lane ladder,
/// replacing their former per-step O(n) scans. Throws
/// std::invalid_argument when n is zero.
std::vector<std::uint64_t> divisors(std::uint64_t n,
                                    std::uint64_t cap = ~std::uint64_t{0});

/// Enumerates the C1/C2 reshape family: the baseline plus par(pipe)
/// variants for every lane count in [2, max_lanes] dividing n; optionally
/// the sequential (C4) variant.
std::vector<Variant> enumerate_variants(std::uint64_t n,
                                        std::uint32_t max_lanes,
                                        bool include_seq = false);

}  // namespace tytra::frontend
