#pragma once

// Seeded random-kernel generator: emits valid, verifier-clean pipelined
// TyTra-IR modules with randomized op mixes, stream offsets and port
// counts. The property suite (tests/test_generated_kernels.cpp) drives
// the whole stack — printer/parser round-trips, structural digests, the
// cost model vs the cycle simulator, and the variant-keyed cost cache —
// over hundreds of these instead of only the three built-in kernels.
//
// Determinism contract: generate_kernel(seed, opts) is a pure function
// of its arguments. A failing design is reproduced by its seed alone.

#include <cstdint>

#include "tytra/ir/module.hpp"

namespace tytra::kernels {

/// Bounds for the generated design space. Defaults keep every design a
/// plausible streaming PE: a handful of ports, a few stream offsets, an
/// op DAG that consumes every input.
struct GeneratorOptions {
  std::uint32_t min_inputs{1};
  std::uint32_t max_inputs{5};
  std::uint32_t max_outputs{2};
  std::uint32_t max_offsets{3};
  /// Extra ops appended after the input-consuming reduction tree.
  std::uint32_t max_extra_ops{16};
  std::uint32_t max_nki{20};
};

/// Builds one random module from `seed`. The result always passes
/// ir::verify (the property suite asserts it): a pipelined @f0 whose DAG
/// consumes every input port and stream offset, one store per output
/// port, an optional reduction, and a call-only @main — so the design is
/// explorable over lane variants exactly like a file-backed workload.
ir::Module generate_kernel(std::uint64_t seed,
                           const GeneratorOptions& options = {});

}  // namespace tytra::kernels
