#pragma once

// The three scientific kernels of the paper's evaluation, expressed as
// TyTra-IR builders plus plain-C++ reference implementations:
//  1. SOR — the successive over-relaxation kernel of the LES weather
//     simulator (a 7-point 3-D stencil with a reduction);
//  2. Hotspot — the Rodinia processor-temperature stencil;
//  3. LavaMD — the Rodinia molecular-dynamics particle kernel.
//
// Each builder can produce the baseline single-pipeline variant (C2) or a
// reshaped multi-lane variant (C1) with any lane count dividing the
// NDRange — the design variants the type transformations of §II generate.

#include <cstdint>
#include <vector>

#include "tytra/ir/module.hpp"
#include "tytra/sim/functional.hpp"

namespace tytra::kernels {

// ---------------------------------------------------------------------------
// SOR
// ---------------------------------------------------------------------------

struct SorConfig {
  std::uint32_t im{24};
  std::uint32_t jm{24};
  std::uint32_t km{24};
  std::uint32_t nki{1000};      ///< nmaxp: SOR iterations per run
  std::uint32_t lanes{1};       ///< KNL (must divide im*jm*km)
  ir::ExecForm form{ir::ExecForm::B};
  ir::ScalarType elem{ir::ScalarType::uint(18)};
  std::int64_t omega{3};        ///< relaxation factor (integer version)

  [[nodiscard]] std::uint64_t ngs() const {
    return static_cast<std::uint64_t>(im) * jm * km;
  }
};

/// Builds the SOR design variant. Throws std::invalid_argument when the
/// lane count does not divide the NDRange.
ir::Module make_sor(const SorConfig& config);

/// Input streams for a lane count of 1 (port names p, rhs, cn1, cn2l,
/// cn2s, cn3l, cn3s, cn4l, cn4s). Deterministic, small values.
sim::StreamMap sor_inputs(const SorConfig& config, std::uint64_t seed = 1);

/// Reference implementation: new pressure per point, plus the SOR-error
/// reduction, with the same clamped-boundary semantics as the simulator.
struct SorReference {
  std::vector<double> p_new;
  double sor_err_acc{0};
};
SorReference sor_reference(const SorConfig& config, const sim::StreamMap& inputs);

// ---------------------------------------------------------------------------
// Hotspot
// ---------------------------------------------------------------------------

struct HotspotConfig {
  std::uint32_t rows{64};
  std::uint32_t cols{64};
  std::uint32_t nki{360};
  std::uint32_t lanes{1};
  ir::ExecForm form{ir::ExecForm::B};
  ir::ScalarType elem{ir::ScalarType::uint(18)};

  [[nodiscard]] std::uint64_t ngs() const {
    return static_cast<std::uint64_t>(rows) * cols;
  }
};

ir::Module make_hotspot(const HotspotConfig& config);
sim::StreamMap hotspot_inputs(const HotspotConfig& config, std::uint64_t seed = 2);
std::vector<double> hotspot_reference(const HotspotConfig& config,
                                      const sim::StreamMap& inputs);

// ---------------------------------------------------------------------------
// LavaMD
// ---------------------------------------------------------------------------

struct LavamdConfig {
  std::uint64_t particles{4096};
  std::uint32_t nki{1};
  std::uint32_t lanes{1};
  /// DV: vectorization degree per lane (C3/C5 configurations). Work-items
  /// are packed dv-wide into vector ports; must divide particles/lanes.
  std::uint32_t dv{1};
  ir::ExecForm form{ir::ExecForm::B};
  ir::ScalarType elem{ir::ScalarType::sint(32)};
};

ir::Module make_lavamd(const LavamdConfig& config);
sim::StreamMap lavamd_inputs(const LavamdConfig& config, std::uint64_t seed = 3);
struct LavamdReference {
  std::vector<double> pot;
  double pot_acc{0};
};
LavamdReference lavamd_reference(const LavamdConfig& config,
                                 const sim::StreamMap& inputs);

}  // namespace tytra::kernels
