#include "tytra/cost/report.hpp"

#include <chrono>
#include <sstream>

#include "tytra/support/strings.hpp"

namespace tytra::cost {

CostReport cost_design(const ir::Module& module, const DeviceCostDb& db) {
  return cost_design(module, db, ir::summarize(module));
}

CostReport cost_design(const ir::Module& module, const DeviceCostDb& db,
                       const ir::AnalysisSummary& summary) {
  const auto t0 = std::chrono::steady_clock::now();
  CostReport report;
  report.design_name = module.name;
  report.config = summary.config;
  report.params = summary.params;
  if (report.params.fd <= 0) report.params.fd = db.device().default_freq_hz;
  report.resources = estimate_resources(module, db, summary);
  report.throughput = estimate_throughput(module, db, summary);

  report.valid = true;
  if (!report.resources.fits) {
    report.valid = false;
    report.invalid_reason = "exceeds device resources (computation wall)";
  }
  // Form C requires the whole kernel-instance data set to live in local
  // memory (on-chip block RAM) for all NKI iterations (paper §III-5).
  if (report.valid && report.params.form == ir::ExecForm::C) {
    const double data_bits = static_cast<double>(report.params.ngs) *
                             report.params.nwpt * db.device().word_bytes * 8.0;
    const double avail =
        static_cast<double>(db.device().resources.bram_bits) *
            (1.0 - db.device().shell_overhead) -
        report.resources.total.bram_bits;
    if (data_bits > avail) {
      report.valid = false;
      report.invalid_reason =
          "form-C NDRange does not fit in local memory (use form B or tile)";
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  report.estimate_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0).count();
  return report;
}

std::string format_report(const CostReport& r) {
  std::ostringstream os;
  os << "=== TyTra cost report: " << r.design_name << " ===\n";
  os << "configuration: " << ir::config_class_name(r.config)
     << "  (KNL=" << r.params.knl << " DV=" << r.params.dv
     << " KPD=" << r.params.kpd << " NI=" << r.params.ni
     << " Noff=" << r.params.noff << ")\n";
  os << "NDRange: NGS=" << r.params.ngs << " NWPT=" << r.params.nwpt
     << " NKI=" << r.params.nki << " form="
     << ir::exec_form_name(r.params.form) << "\n";
  os << "resources: " << r.resources.total.to_string() << "\n";
  os << "utilization: aluts=" << format_fixed(r.resources.util.aluts, 1)
     << "% regs=" << format_fixed(r.resources.util.regs, 1)
     << "% bram=" << format_fixed(r.resources.util.bram, 1)
     << "% dsps=" << format_fixed(r.resources.util.dsps, 1) << "%\n";
  os << "throughput: EKIT=" << format_si(r.throughput.ekit)
     << "kernel-instances/s  CPKI=" << format_si(r.throughput.cycles_per_instance)
     << "cycles\n";
  os << "limiting factor: " << wall_name(r.throughput.limiting) << "\n";
  os << "valid: " << (r.valid ? "yes" : ("NO - " + r.invalid_reason)) << "\n";
  os << "estimated in " << format_fixed(r.estimate_seconds * 1e3, 3) << " ms\n";
  return os.str();
}

namespace {

void save_vec(binio::Encoder& enc, const ResourceVec& v) {
  enc.f64(v.aluts);
  enc.f64(v.regs);
  enc.f64(v.bram_bits);
  enc.f64(v.dsps);
}

ResourceVec load_vec(binio::Decoder& dec) {
  ResourceVec v;
  v.aluts = dec.f64();
  v.regs = dec.f64();
  v.bram_bits = dec.f64();
  v.dsps = dec.f64();
  return v;
}

}  // namespace

void save_report(binio::Encoder& enc, const CostReport& r) {
  enc.str(r.design_name);
  enc.u8(static_cast<std::uint8_t>(r.config));

  const ir::DesignParams& p = r.params;
  enc.u64(p.ngs);
  enc.f64(p.nwpt);
  enc.u32(p.nki);
  enc.u64(p.noff);
  enc.i64(p.kpd);
  enc.f64(p.fd);
  enc.f64(p.nto);
  enc.f64(p.ni);
  enc.u32(p.knl);
  enc.u32(p.dv);
  enc.u8(static_cast<std::uint8_t>(p.form));

  save_vec(enc, r.resources.total);
  enc.f64(r.resources.util.aluts);
  enc.f64(r.resources.util.regs);
  enc.f64(r.resources.util.bram);
  enc.f64(r.resources.util.dsps);
  enc.u8(r.resources.fits ? 1 : 0);

  const ThroughputEstimate& t = r.throughput;
  enc.f64(t.ekit);
  enc.f64(t.seconds_per_instance);
  enc.f64(t.t_host);
  enc.f64(t.t_offset_fill);
  enc.f64(t.t_pipe_fill);
  enc.f64(t.t_mem_stream);
  enc.f64(t.t_compute);
  enc.u8(static_cast<std::uint8_t>(t.limiting));
  enc.f64(t.cycles_per_instance);

  enc.u8(r.valid ? 1 : 0);
  enc.str(r.invalid_reason);
  enc.f64(r.estimate_seconds);
}

CostReport load_report(binio::Decoder& dec) {
  CostReport r;
  r.design_name = dec.str();
  const std::uint8_t config = dec.u8();
  if (config > static_cast<std::uint8_t>(ir::ConfigClass::C5)) {
    dec.fail("cost report: configuration class out of range");
    return r;
  }
  r.config = static_cast<ir::ConfigClass>(config);

  ir::DesignParams& p = r.params;
  p.ngs = dec.u64();
  p.nwpt = dec.f64();
  p.nki = dec.u32();
  p.noff = dec.u64();
  p.kpd = static_cast<int>(dec.i64());
  p.fd = dec.f64();
  p.nto = dec.f64();
  p.ni = dec.f64();
  p.knl = dec.u32();
  p.dv = dec.u32();
  const std::uint8_t form = dec.u8();
  if (form > static_cast<std::uint8_t>(ir::ExecForm::C)) {
    dec.fail("cost report: execution form out of range");
    return r;
  }
  p.form = static_cast<ir::ExecForm>(form);

  r.resources.total = load_vec(dec);
  r.resources.util.aluts = dec.f64();
  r.resources.util.regs = dec.f64();
  r.resources.util.bram = dec.f64();
  r.resources.util.dsps = dec.f64();
  r.resources.fits = dec.u8() != 0;

  ThroughputEstimate& t = r.throughput;
  t.ekit = dec.f64();
  t.seconds_per_instance = dec.f64();
  t.t_host = dec.f64();
  t.t_offset_fill = dec.f64();
  t.t_pipe_fill = dec.f64();
  t.t_mem_stream = dec.f64();
  t.t_compute = dec.f64();
  const std::uint8_t wall = dec.u8();
  if (wall > static_cast<std::uint8_t>(Wall::OffsetFill)) {
    dec.fail("cost report: limiting wall out of range");
    return r;
  }
  t.limiting = static_cast<Wall>(wall);
  t.cycles_per_instance = dec.f64();

  r.valid = dec.u8() != 0;
  r.invalid_reason = dec.str();
  r.estimate_seconds = dec.f64();
  return r;
}

}  // namespace tytra::cost
