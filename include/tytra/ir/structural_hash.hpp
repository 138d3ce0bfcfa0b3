#pragma once

// Streaming structural hashing of TyTra-IR modules. The walk feeds every
// field that participates in the printed textual form (and nothing else —
// source locations are excluded) directly into a HashBuilder, so hashing
// a module costs one traversal and zero heap allocations, unlike hashing
// `print_module(m)` which materializes the whole text first.
//
// Invariant (tested): two modules with equal printed IR hash equally, and
// any difference the printer would show — a port, an offset, a metadata
// field, an instruction — changes the hash. One deliberate refinement:
// a stream object's stride is hashed even when its pattern is contiguous
// (the printer omits it there, but the cost model can still read it
// through a strided port), so the digest is never coarser than what the
// models consume; for every parser- or builder-produced module the two
// identities coincide exactly. The digest is 128 bits wide (two
// independently seeded 64-bit walks) so memoization layers can treat
// digest equality as design identity without a byte-level fallback.

#include <cstdint>

#include "tytra/ir/module.hpp"
#include "tytra/support/hash.hpp"

namespace tytra::ir {

/// A 128-bit structural digest: `key` indexes, `check` guards against
/// 64-bit collisions. Both halves hash the same field stream under
/// different seeds.
struct StructuralDigest {
  std::uint64_t key{0};
  std::uint64_t check{0};

  friend bool operator==(const StructuralDigest&,
                         const StructuralDigest&) = default;
};

/// 128-bit structural digest of the module (one walk feeding both halves).
StructuralDigest structural_digest(const Module& module);

}  // namespace tytra::ir
