#include "tytra/cost/roofline.hpp"

#include <algorithm>

#include "tytra/cost/throughput.hpp"
#include "tytra/ir/analysis.hpp"

namespace tytra::cost {

RooflinePoint roofline(const ir::Module& module, const DeviceCostDb& db) {
  RooflinePoint pt;
  const EkitInputs in = resolve_inputs(module, db);
  const ir::DesignParams& d = in.design;
  if (d.ngs == 0 || d.fd <= 0) return pt;

  const double ops_per_item = ir::instructions_per_pe(module);
  const double bytes_per_item = d.nwpt * in.word_bytes;
  pt.arithmetic_intensity = ops_per_item / bytes_per_item;

  // Compute roof: the datapath retires ops_per_item every NWPT*NTO cycles
  // per lane (word-serial feed), across KNL lanes and DV vector lanes.
  const double items_per_second = d.fd * d.knl * d.dv / (d.nwpt * d.nto * d.ni);
  pt.ops_ceiling = items_per_second * ops_per_item;

  // Bandwidth roof at this design's sustained DRAM rate.
  const double sustained = in.gpb * in.rho_g;
  pt.bw_roof_ops = pt.arithmetic_intensity * sustained;

  pt.attainable_ops = std::min(pt.ops_ceiling, pt.bw_roof_ops);
  pt.memory_bound = pt.bw_roof_ops < pt.ops_ceiling;
  pt.balance_point = pt.ops_ceiling / std::max(1.0, sustained);

  const ThroughputEstimate est = ekit(in);
  pt.achieved_ops =
      est.ekit * static_cast<double>(d.ngs) * ops_per_item;
  return pt;
}

}  // namespace tytra::cost
