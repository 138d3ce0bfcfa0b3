// Byte goldens for the cost model's answers and for the two reference
// oracles that read the pipeline schedule (HDL emission and the fabric
// synthesizer).
//
// cost_reports.txt holds one line per costed design: the family (workload,
// dimension, device), the variant label and the FNV-1a of the report's
// canonical text — every CostReport field except the wall-clock
// estimate_seconds, doubles at %.17g so a one-ulp drift shows. The design
// set is every variant (sequential one included) of the three built-in
// kernels at each dimension of {16, 24, 32, 48, 64, 96, 128} on each
// preset, of 200 generated kernels through the file lowerer, and of every
// examples/ir/*.tir file, plus one hand-written design (kCostCorners) for
// the port shapes none of those has. On a mismatch the test prints the
// first report whose digest changed, in full, and writes every line it
// produced to `cost_reports.txt.actual` in the working directory.
//
// oracles.txt pins emit_verilog (a digest of the source plus its depth and
// instance count) and fabric::synthesize (every field but synth_seconds)
// for SOR, Hotspot and LavaMD at 1, 4 and 16 lanes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "tytra/codegen/verilog.hpp"
#include "tytra/cost/report.hpp"
#include "tytra/fabric/synth.hpp"
#include "tytra/frontend/transform.hpp"
#include "tytra/kernels/file_workload.hpp"
#include "tytra/kernels/generator.hpp"
#include "tytra/kernels/kernels.hpp"
#include "tytra/kernels/registry.hpp"
#include "tytra/support/rng.hpp"
#include "tytra/target/device.hpp"

namespace {

using namespace tytra;

const std::string kSourceDir = TYTRA_SOURCE_DIR;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void put(std::string& out, const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, " %s=%.17g", key, v);
  out += buf;
}

void put(std::string& out, const char* key, std::uint64_t v) {
  out += ' ';
  out += key;
  out += '=';
  out += std::to_string(v);
}

void put(std::string& out, const char* prefix, const ResourceVec& v) {
  const std::string p(prefix);
  put(out, (p + ".aluts").c_str(), v.aluts);
  put(out, (p + ".regs").c_str(), v.regs);
  put(out, (p + ".bram_bits").c_str(), v.bram_bits);
  put(out, (p + ".dsps").c_str(), v.dsps);
}

/// Every field of `r` except estimate_seconds (a wall-clock reading) and
/// the per-function breakdown, one `key=value` per field.
std::string canonical(const cost::CostReport& r) {
  std::string out = "design=" + r.design_name;
  out += " config=";
  out += ir::config_class_name(r.config);
  const ir::DesignParams& p = r.params;
  put(out, "ngs", p.ngs);
  put(out, "nwpt", p.nwpt);
  put(out, "nki", std::uint64_t{p.nki});
  put(out, "noff", p.noff);
  put(out, "kpd", static_cast<std::uint64_t>(p.kpd));
  put(out, "fd", p.fd);
  put(out, "nto", p.nto);
  put(out, "ni", p.ni);
  put(out, "knl", std::uint64_t{p.knl});
  put(out, "dv", std::uint64_t{p.dv});
  out += " form=";
  out += ir::exec_form_name(p.form);
  put(out, "total", r.resources.total);
  put(out, "util.aluts", r.resources.util.aluts);
  put(out, "util.regs", r.resources.util.regs);
  put(out, "util.bram", r.resources.util.bram);
  put(out, "util.dsps", r.resources.util.dsps);
  put(out, "fits", std::uint64_t{r.resources.fits});
  const cost::ThroughputEstimate& t = r.throughput;
  put(out, "ekit", t.ekit);
  put(out, "spi", t.seconds_per_instance);
  put(out, "t_host", t.t_host);
  put(out, "t_offset_fill", t.t_offset_fill);
  put(out, "t_pipe_fill", t.t_pipe_fill);
  put(out, "t_mem_stream", t.t_mem_stream);
  put(out, "t_compute", t.t_compute);
  out += " wall=";
  out += cost::wall_name(t.limiting);
  put(out, "cpki", t.cycles_per_instance);
  put(out, "valid", std::uint64_t{r.valid});
  out += " reason=" + r.invalid_reason;
  return out;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

/// One golden line per family: its name, then a 32-bit FNV-1a per report
/// in enumeration order. The full texts are kept to report a mismatch.
struct Family {
  std::string name;
  std::vector<std::string> labels;
  std::vector<std::string> texts;

  [[nodiscard]] static std::string digest(const std::string& text) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "%08" PRIx32,
                  static_cast<std::uint32_t>(fnv1a(text)));
    return buf;
  }

  [[nodiscard]] std::string line() const {
    std::string out = name;
    for (const auto& t : texts) {
      out += ' ';
      out += digest(t);
    }
    return out;
  }
};

/// Costs every variant (the sequential one included) `lower` enumerates
/// over an `n`-item NDRange on `db`.
Family cost_family(std::string name, const dse::Lowerer& lower,
                   std::uint64_t n, const cost::DeviceCostDb& db) {
  Family f{std::move(name), {}, {}};
  for (const auto& v : frontend::enumerate_variants(n, 16, true)) {
    f.labels.push_back(v.describe());
    f.texts.push_back(canonical(cost::cost_design(lower.lower(v), db)));
  }
  return f;
}

/// Compares the lines `actual` with the golden file `name` byte for byte.
/// On a mismatch writes them to `<name>.actual` and reports the first line
/// that differs, with `detail(line index, golden line)` appended.
template <class Detail>
void expect_golden(const std::string& name,
                   const std::vector<std::string>& actual, Detail&& detail) {
  const std::string want = read_file(kSourceDir + "/tests/golden/" + name);
  std::string got;
  for (const auto& l : actual) got += l + "\n";
  if (got == want) return;
  std::ofstream(name + ".actual", std::ios::binary) << got;
  std::istringstream in(want);
  std::string line;
  std::size_t i = 0;
  while (std::getline(in, line) && i < actual.size() && line == actual[i]) ++i;
  if (i == actual.size()) {
    ADD_FAILURE() << name << ": golden has lines past the actual "
                  << actual.size();
    return;
  }
  ADD_FAILURE() << name << ": first difference at line " << i + 1
                << "\n  golden: " << line << "\n  actual: " << actual[i]
                << detail(i, line);
}

/// Port shapes the corpus lacks: equal widths over different memory
/// sizes (@a, @b), one memory behind two streams (@a, @c), a wide port
/// (@d) sharing @b's strided pattern, a stride short enough to stream as
/// contiguous (@c, which also starts at an offset), a port with no stream
/// object (@e), and stream objects declared out of port order, so the
/// summary cannot resolve them by position.
constexpr const char* kCostCorners = R"(!name = cost_corners
!ngs = 4096
!nki = 3
!form = B

memobj @m_small global ui18 x 4096
memobj @m_big global ui18 x 262144
memobj @m_wide global ui32 x 4096
memobj @m_out global ui18 x 4096
stream @s_out writes @m_out pattern cont
stream @s_big reads @m_big pattern strided 64
stream @s_small reads @m_small pattern cont
stream @s_near reads @m_small pattern strided 3
stream @s_wide reads @m_wide pattern strided 64

@main.a = addrSpace(1) ui18, !"istream", !"CONT", !0, !"s_small"
@main.b = addrSpace(1) ui18, !"istream", !"STRIDED", !0, !"s_big"
@main.c = addrSpace(1) ui18, !"istream", !"STRIDED", !2, !"s_near"
@main.d = addrSpace(1) ui32, !"istream", !"STRIDED", !0, !"s_wide"
@main.e = addrSpace(1) ui18, !"istream", !"CONT", !0
@main.out = addrSpace(1) ui18, !"ostream", !"CONT", !0, !"s_out"

define void @f0(ui18 %a, ui18 %b, ui18 %c, ui32 %d, ui18 %e, ui18 %out) pipe {
  ui18 %a1 = ui18 %a, !offset, !+1
  ui32 %dd = mul ui32 %d, %d
  ui18 %x = mul ui18 %a, %b
  ui18 %y = add ui18 %x, %a1
  ui18 %z = add ui18 %c, %e
  ui18 %w = mul ui18 %y, %z
  ui18 @out = mov ui18 %w
}

define void @main() pipe {
  call @f0(@a, @b, @c, @d, @e, @out) pipe
}
)";

std::vector<cost::DeviceCostDb> preset_dbs() {
  std::vector<cost::DeviceCostDb> dbs;
  for (const char* name : {"stratix-v-gsd8", "virtex7-690t", "fig15"}) {
    dbs.push_back(cost::DeviceCostDb::calibrate(*target::preset(name)));
  }
  return dbs;
}

TEST(CostGolden, EveryCorpusReportMatchesGolden) {
  const std::vector<cost::DeviceCostDb> dbs = preset_dbs();
  std::vector<Family> families;
  const auto on_every_preset = [&](const std::string& stem,
                                   const dse::Lowerer& lower, std::uint64_t n) {
    for (const auto& db : dbs) {
      families.push_back(
          cost_family(stem + "/" + db.device().name, lower, n, db));
    }
  };

  auto& registry = kernels::Registry::instance();
  for (const char* kernel : {"sor", "hotspot", "lavamd"}) {
    for (const std::uint32_t nd : {16u, 24u, 32u, 48u, 64u, 96u, 128u}) {
      auto job = registry.make_job(kernel, nd);
      ASSERT_TRUE(job.ok()) << kernel << " " << nd;
      on_every_preset(std::string(kernel) + "/" + std::to_string(nd),
                      *job.value().lower, job.value().n);
    }
  }

  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    auto baseline =
        std::make_shared<const ir::Module>(kernels::generate_kernel(seed));
    on_every_preset("gen" + std::to_string(seed),
                    kernels::file_lowerer(baseline),
                    baseline->meta.global_size);
  }

  std::vector<std::string> tirs;
  for (const auto& e :
       std::filesystem::directory_iterator(kSourceDir + "/examples/ir")) {
    if (e.path().extension() == ".tir") tirs.push_back(e.path().filename());
  }
  std::sort(tirs.begin(), tirs.end());
  ASSERT_FALSE(tirs.empty());
  for (const auto& file : tirs) {
    auto loaded = kernels::load_file_workload(
        read_file(kSourceDir + "/examples/ir/" + file), 0);
    ASSERT_TRUE(loaded.ok()) << file;
    const auto& baseline = loaded.value().baseline;
    on_every_preset(file, kernels::file_lowerer(baseline),
                    baseline->meta.global_size);
  }

  auto corners = kernels::load_file_workload(kCostCorners, 0);
  ASSERT_TRUE(corners.ok()) << corners.error_message();
  const auto& corner_design = corners.value().baseline;
  on_every_preset("cost_corners", kernels::file_lowerer(corner_design),
                  corner_design->meta.global_size);

  std::vector<std::string> lines;
  for (const auto& f : families) lines.push_back(f.line());
  expect_golden("cost_reports.txt", lines,
                [&](std::size_t i, const std::string& golden) {
                  // The first report whose digest moved, in full.
                  const Family& f = families[i];
                  std::istringstream words(golden);
                  std::string word;
                  words >> word;  // the family name
                  std::size_t k = 0;
                  while (k < f.texts.size() && words >> word &&
                         word == Family::digest(f.texts[k])) {
                    ++k;
                  }
                  if (k == f.texts.size()) return std::string();
                  return "\n  first changed report: " + f.labels[k] +
                         "\n    " + f.texts[k];
                });
}

std::string synth_text(const fabric::SynthReport& r) {
  std::string out;
  put(out, "total", r.total);
  for (const auto& [name, vec] : r.per_function) put(out, name.c_str(), vec);
  put(out, "util.aluts", r.util.aluts);
  put(out, "util.regs", r.util.regs);
  put(out, "util.bram", r.util.bram);
  put(out, "util.dsps", r.util.dsps);
  put(out, "fits", std::uint64_t{r.fits});
  put(out, "fmax", r.fmax_hz);
  put(out, "avg_wl", r.avg_wirelength);
  put(out, "crit_wl", r.critical_wirelength);
  put(out, "nodes", std::uint64_t{r.netlist_nodes});
  return out;
}

TEST(CostGolden, VerilogAndSynthesisMatchGolden) {
  const target::DeviceDesc device = target::stratix_v_gsd8();
  std::vector<std::string> lines;
  for (const std::uint32_t lanes : {1u, 4u, 16u}) {
    kernels::SorConfig sor;
    sor.lanes = lanes;
    kernels::HotspotConfig hotspot;
    hotspot.lanes = lanes;
    kernels::LavamdConfig lavamd;
    lavamd.lanes = lanes;
    const std::pair<std::string, ir::Module> designs[] = {
        {"sor", kernels::make_sor(sor)},
        {"hotspot", kernels::make_hotspot(hotspot)},
        {"lavamd", kernels::make_lavamd(lavamd)},
    };
    for (const auto& [kernel, m] : designs) {
      const std::string family = kernel + "/L" + std::to_string(lanes);
      const codegen::VerilogDesign hdl = codegen::emit_verilog(m);
      std::string text = "top=" + hdl.top_module;
      put(text, "depth", static_cast<std::uint64_t>(hdl.pipeline_depth));
      put(text, "primitives", std::uint64_t{hdl.primitive_count});
      put(text, "bytes", std::uint64_t{hdl.source.size()});
      text += " source=" + hex64(fnv1a(hdl.source));
      lines.push_back(family + " verilog " + text);
      lines.push_back(family + " synth" +
                      synth_text(fabric::synthesize(m, device)));
    }
  }
  expect_golden("oracles.txt", lines,
                [](std::size_t, const std::string&) { return std::string(); });
}

}  // namespace
