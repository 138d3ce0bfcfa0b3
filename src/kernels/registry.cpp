#include "tytra/kernels/registry.hpp"

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <utility>

#include "tytra/kernels/kernels.hpp"
#include "tytra/kernels/lowerers.hpp"
#include "tytra/support/json.hpp"
#include "tytra/target/device.hpp"

namespace tytra::kernels {

namespace {

tytra::Diag nd_error(std::string_view workload, std::string_view what) {
  return tytra::make_error(std::string(workload) + ": " + std::string(what));
}

/// Largest nd with nd^3 <= 2^64 - 1 (cbrt of uint64 max, floored).
constexpr std::uint32_t kMaxSorNd = 2642245;

// The nd→config mappings below must agree with the reference_checksum
// hooks: both derive from the same config for a given nd, so the
// registered lowering and the ground-truth simulation describe the same
// problem instance.

SorConfig sor_config(std::uint32_t nd) {
  SorConfig cfg;
  cfg.im = cfg.jm = cfg.km = nd;
  cfg.nki = 10;
  return cfg;
}

HotspotConfig hotspot_config(std::uint32_t nd) {
  HotspotConfig cfg;
  cfg.rows = cfg.cols = nd;
  return cfg;
}

LavamdConfig lavamd_config(std::uint32_t nd) {
  LavamdConfig cfg;
  cfg.particles = nd;
  return cfg;
}

Registry make_builtin_registry() {
  Registry reg;

  reg.add(WorkloadInfo{
      "sor",
      "7-point 3-D SOR stencil with reduction (the LES weather kernel)",
      "edge of the nd^3 grid",
      24,
      [](std::uint32_t nd) -> tytra::Result<std::uint64_t> {
        if (nd == 0) return nd_error("sor", "--nd must be positive");
        if (nd > kMaxSorNd) {
          return nd_error("sor", "--nd " + std::to_string(nd) +
                                     " overflows the uint64 NDRange (nd^3)");
        }
        return static_cast<std::uint64_t>(nd) * nd * nd;
      },
      [](std::uint32_t nd) { return sor_lowerer(sor_config(nd)); },
      [](std::uint32_t nd) {
        const SorConfig cfg = sor_config(nd);
        const SorReference ref = sor_reference(cfg, sor_inputs(cfg));
        double sum = ref.sor_err_acc;
        for (const double v : ref.p_new) sum += v;
        return sum;
      },
      /*source=*/{}});

  reg.add(WorkloadInfo{
      "hotspot",
      "Rodinia processor-temperature stencil",
      "edge of the nd^2 floorplan",
      24,
      [](std::uint32_t nd) -> tytra::Result<std::uint64_t> {
        if (nd == 0) return nd_error("hotspot", "--nd must be positive");
        // nd is 32-bit, so nd^2 always fits uint64 — no upper bound.
        return static_cast<std::uint64_t>(nd) * nd;
      },
      [](std::uint32_t nd) { return hotspot_lowerer(hotspot_config(nd)); },
      [](std::uint32_t nd) {
        const HotspotConfig cfg = hotspot_config(nd);
        double sum = 0;
        for (const double v : hotspot_reference(cfg, hotspot_inputs(cfg))) {
          sum += v;
        }
        return sum;
      },
      /*source=*/{}});

  reg.add(WorkloadInfo{
      "lavamd",
      "Rodinia molecular-dynamics particle kernel",
      "particle count",
      24,
      [](std::uint32_t nd) -> tytra::Result<std::uint64_t> {
        if (nd == 0) return nd_error("lavamd", "--nd must be positive");
        return nd;
      },
      [](std::uint32_t nd) { return lavamd_lowerer(lavamd_config(nd)); },
      [](std::uint32_t nd) {
        const LavamdConfig cfg = lavamd_config(nd);
        const LavamdReference ref = lavamd_reference(cfg, lavamd_inputs(cfg));
        double sum = ref.pot_acc;
        for (const double v : ref.pot) sum += v;
        return sum;
      },
      /*source=*/{}});

  return reg;
}

}  // namespace

Registry& Registry::instance() {
  // Built-ins live in this translation unit, so using the registry from a
  // static library can never drop them to the linker's dead-stripping.
  static Registry reg = make_builtin_registry();
  return reg;
}

void Registry::add(WorkloadInfo info) {
  auto added = try_add(std::move(info));
  if (!added.ok()) {
    throw std::invalid_argument(added.diag().message);
  }
}

tytra::Result<const WorkloadInfo*> Registry::try_add(WorkloadInfo info) {
  if (info.name.empty()) {
    return tytra::make_error("kernels::Registry: workload name is empty");
  }
  if (!info.ndrange || !info.make_lowerer) {
    return tytra::make_error("kernels::Registry: workload '" + info.name +
                             "' is missing the ndrange or make_lowerer hook");
  }
  if (find(info.name)) {
    return tytra::make_error("kernels::Registry: workload '" + info.name +
                             "' is already registered");
  }
  entries_.push_back(std::move(info));
  return static_cast<const WorkloadInfo*>(&entries_.back());
}

const WorkloadInfo* Registry::find(std::string_view name) const {
  for (const auto& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

std::vector<std::string> Registry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back(e.name);
  return out;
}

std::string Registry::names_joined(std::string_view sep) const {
  std::string out;
  for (const auto& e : entries_) {
    if (!out.empty()) out += sep;
    out += e.name;
  }
  return out;
}

std::string format_registry(const Registry& reg) {
  std::string out = "workloads (kernels::Registry):\n";
  char line[512];
  for (const auto& info : reg.all()) {
    std::snprintf(line, sizeof line, "  %-10s %s\n", info.name.c_str(),
                  info.summary.c_str());
    out += line;
    std::snprintf(line, sizeof line, "  %-10s --nd: %s (default %u)\n", "",
                  info.nd_help.c_str(), info.default_nd);
    out += line;
    if (!info.source.empty()) {
      std::snprintf(line, sizeof line, "  %-10s source: %s\n", "",
                    info.source.c_str());
      out += line;
    }
  }
  out += "device presets: ";
  const auto& presets = target::preset_names();
  for (std::size_t i = 0; i < presets.size(); ++i) {
    if (i) out += "|";
    out += presets[i];
  }
  out += " (or any .tgt file)\n";
  return out;
}

std::string format_registry_json(const Registry& reg) {
  std::string out = "{\n  \"workloads\": [";
  const auto& entries = reg.all();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& info = entries[i];
    out += i ? ",\n    {\"name\": \"" : "\n    {\"name\": \"";
    tytra::json::append_escaped(out, info.name);
    out += "\", \"summary\": \"";
    tytra::json::append_escaped(out, info.summary);
    out += "\", \"nd_help\": \"";
    tytra::json::append_escaped(out, info.nd_help);
    out += "\", \"default_nd\": " + std::to_string(info.default_nd) +
           ", \"source\": ";
    if (info.source.empty()) {
      out += "null}";
    } else {
      out += '"';
      tytra::json::append_escaped(out, info.source);
      out += "\"}";
    }
  }
  out += "\n  ],\n  \"presets\": [";
  const auto& presets = target::preset_names();
  for (std::size_t i = 0; i < presets.size(); ++i) {
    out += i ? ", \"" : "\"";
    tytra::json::append_escaped(out, presets[i]);
    out += '"';
  }
  out += "]\n}\n";
  return out;
}

tytra::Result<dse::Job> Registry::make_job(std::string_view workload,
                                           std::uint32_t nd) const {
  const WorkloadInfo* info = find(workload);
  if (!info) {
    return tytra::make_error("unknown workload '" + std::string(workload) +
                             "' (registered: " + names_joined() + ")");
  }
  auto n = info->ndrange(nd);
  if (!n.ok()) return n.diag();
  dse::Job job;
  job.workload = info->name;
  job.nd = nd;
  job.n = n.value();
  job.lower = std::make_shared<dse::KeyedLowerer>(info->make_lowerer(nd));
  return job;
}

}  // namespace tytra::kernels
