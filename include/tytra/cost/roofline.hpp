#pragma once

// Roofline representation of a design variant: the paper points at the
// FPGA roofline extension of da Silva et al. [11] as "quite relevant ...
// for a more useful representation of our cost-model". This module places
// a costed design on the (arithmetic intensity, attainable throughput)
// plane against the device's compute and bandwidth ceilings.

#include "tytra/cost/calibration.hpp"
#include "tytra/ir/module.hpp"

namespace tytra::cost {

struct RooflinePoint {
  double arithmetic_intensity{0};  ///< datapath ops per DRAM byte moved
  double ops_ceiling{0};           ///< design's compute roof, ops/s
  double bw_roof_ops{0};           ///< AI x sustained bandwidth, ops/s
  double attainable_ops{0};        ///< min of the two roofs
  double achieved_ops{0};          ///< ops/s at the EKIT estimate
  bool memory_bound{false};
  double balance_point{0};         ///< AI where the roofs intersect
};

/// Places `module` on the roofline of the calibrated device.
/// Preconditions: module verifies, NDRange non-zero.
RooflinePoint roofline(const ir::Module& module, const DeviceCostDb& db);

}  // namespace tytra::cost
