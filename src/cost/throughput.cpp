#include "tytra/cost/throughput.hpp"

#include <algorithm>
#include <vector>

namespace tytra::cost {

std::string_view wall_name(Wall wall) {
  switch (wall) {
    case Wall::HostBandwidth: return "host-bandwidth";
    case Wall::DramBandwidth: return "dram-bandwidth";
    case Wall::Compute: return "compute";
    case Wall::PipelineFill: return "pipeline-fill";
    case Wall::OffsetFill: return "offset-fill";
  }
  return "?";
}

ThroughputEstimate ekit(const EkitInputs& in) {
  ThroughputEstimate out;
  const ir::DesignParams& d = in.design;
  const double fd = d.fd;
  if (fd <= 0 || d.ngs == 0) return out;

  const double ngs = static_cast<double>(d.ngs);
  const double words = ngs * d.nwpt;                    // NGS * NWPT
  const double bytes = words * in.word_bytes;
  const double host_bw = std::max(1.0, in.hpb * in.rho_h);
  const double dram_bw = std::max(1.0, in.gpb * in.rho_g);

  // Term 1: host<->device transfer. Form A pays it on every kernel
  // instance; forms B and C amortize it over the NKI repetitions (Eq. 2-3).
  double t_host = bytes / host_bw;
  if (d.form != ir::ExecForm::A) t_host /= std::max<std::uint32_t>(d.nki, 1);
  // Term 2: filling the offset stream buffers until the first work-item.
  const double t_offset =
      (static_cast<double>(d.noff) * in.word_bytes) / dram_bw;
  // Term 3: filling the kernel pipeline.
  const double t_fill = static_cast<double>(d.kpd) / fd;
  // Term 4: steady-state — the slower of DRAM streaming and the datapath.
  const double t_mem = bytes / dram_bw;
  const double t_compute =
      (ngs * d.nwpt * d.nto * d.ni) / (fd * d.knl * d.dv);

  double t_steady = 0;
  if (d.form == ir::ExecForm::C) {
    // Form C is always compute-bound: data stays in on-chip local memory.
    t_steady = t_compute;
  } else {
    t_steady = std::max(t_mem, t_compute);
  }

  out.t_host = t_host;
  out.t_offset_fill = t_offset;
  out.t_pipe_fill = t_fill;
  out.t_mem_stream = d.form == ir::ExecForm::C ? 0.0 : t_mem;
  out.t_compute = t_compute;
  out.seconds_per_instance = t_host + t_offset + t_fill + t_steady;
  out.ekit = 1.0 / out.seconds_per_instance;

  // Limiting factor.
  struct Candidate {
    double t;
    Wall wall;
  };
  const Candidate candidates[] = {
      {t_host, Wall::HostBandwidth},
      {t_offset, Wall::OffsetFill},
      {t_fill, Wall::PipelineFill},
      {d.form == ir::ExecForm::C ? 0.0 : t_mem, Wall::DramBandwidth},
      {t_compute, Wall::Compute},
  };
  const auto* best = &candidates[0];
  for (const auto& c : candidates) {
    if (c.t > best->t) best = &c;
  }
  out.limiting = best->wall;

  // CPKI: device-side cycles per kernel instance (host transfers excluded,
  // as in Table II's compute-bound comparisons).
  out.cycles_per_instance = (t_offset + t_fill + t_steady) * fd;
  return out;
}

EkitInputs resolve_inputs(const ir::Module& module, const DeviceCostDb& db) {
  return resolve_inputs(module, db, ir::summarize(module));
}

EkitInputs resolve_inputs(const ir::Module& module, const DeviceCostDb& db,
                          const ir::AnalysisSummary& summary) {
  EkitInputs in;
  in.design = summary.params;
  const target::DeviceDesc& dev = db.device();
  if (in.design.fd <= 0) in.design.fd = dev.default_freq_hz;
  in.word_bytes = dev.word_bytes;
  in.hpb = dev.host.peak_bw;
  in.gpb = dev.dram_peak_bw;

  // Empirical scaling factors for this design's transfer sizes & patterns.
  const double words = static_cast<double>(in.design.ngs) * in.design.nwpt;
  const auto bytes = static_cast<std::uint64_t>(words * in.word_bytes);
  in.rho_h = bytes > 0
                 ? std::min(1.0, db.host_sustained(bytes) / std::max(1.0, in.hpb))
                 : 1.0;

  // rho_G: weight the per-port patterns (strided ports stream far slower).
  // The table is evaluated at the *total* transfer size: the concurrent
  // port streams form one long aggregate DRAM transfer.
  // Each distinct (pattern, stride) is looked up once; the terms are still
  // summed in port order.
  if (!module.ports.empty() && bytes > 0) {
    std::vector<double> inv(summary.ports.size());
    double inv_sum = 0;
    for (std::size_t i = 0; i < summary.ports.size(); ++i) {
      const ir::PortSummary& ps = summary.ports[i];
      if (ps.bandwidth_class == i) {
        const double bw =
            db.bandwidth().sustained(bytes, ps.port->pattern, ps.stride_words);
        inv[i] = 1.0 / std::max(1.0, bw);
      }
      inv_sum += inv[ps.bandwidth_class];
    }
    // Concurrent ports share the memory system: each per-port measurement
    // already reflects the full DRAM serving one stream, so the aggregate
    // deliverable bandwidth is the harmonic mean across the port patterns
    // (a single strided port drags the whole tuple rate down).
    const double aggregate = static_cast<double>(module.ports.size()) / inv_sum;
    in.rho_g = std::min(1.0, aggregate / std::max(1.0, in.gpb));
  } else {
    in.rho_g = 1.0;
  }
  return in;
}

ThroughputEstimate estimate_throughput(const ir::Module& module,
                                       const DeviceCostDb& db) {
  return ekit(resolve_inputs(module, db));
}

ThroughputEstimate estimate_throughput(const ir::Module& module,
                                       const DeviceCostDb& db,
                                       const ir::AnalysisSummary& summary) {
  return ekit(resolve_inputs(module, db, summary));
}

}  // namespace tytra::cost
