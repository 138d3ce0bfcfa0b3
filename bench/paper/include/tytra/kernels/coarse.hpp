#pragma once

// Coarse-grained pipeline exemplar (Fig. 7 configuration 3 / Fig. 8).

#include <cstdint>
#include <vector>

#include "tytra/ir/module.hpp"
#include "tytra/sim/functional.hpp"

namespace tytra::kernels {

/// A two-stage coarse-grained pipeline: stage A computes a 3-point stencil
/// sum into an intermediate stream, stage B applies a weighting with a
/// single-cycle custom combinatorial block (comb) folded in — the exact
/// configuration the paper's Fig. 8 extracts.
struct CoarseConfig {
  std::uint64_t items{4096};
  std::uint32_t nki{10};
  ir::ExecForm form{ir::ExecForm::B};
  ir::ScalarType elem{ir::ScalarType::uint(18)};
};

ir::Module make_coarse_pipeline(const CoarseConfig& config);
sim::StreamMap coarse_inputs(const CoarseConfig& config, std::uint64_t seed = 4);
/// Reference for the final output stream "y".
std::vector<double> coarse_reference(const CoarseConfig& config,
                                     const sim::StreamMap& inputs);

}  // namespace tytra::kernels
