// The Rodinia Hotspot kernel: estimates processor temperature over an
// architectural floorplan — a 5-point 2-D stencil combining the ambient
// leak, the power map and the neighbour couplings.

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tytra/ir/builder.hpp"
#include "tytra/kernels/kernels.hpp"
#include "tytra/kernels/streams.hpp"
#include "tytra/support/rng.hpp"

namespace tytra::kernels {

namespace {

using ir::FuncKind;
using ir::FunctionBuilder;
using ir::ModuleBuilder;
using ir::Opcode;
using ir::Operand;
using ir::Type;

constexpr std::int64_t kAmbient = 80;
constexpr std::int64_t kRz = 16;   // vertical (ambient) resistance, power of 2
constexpr std::int64_t kCap = 2;   // thermal capacitance step factor

constexpr const char* kHotspotInputs[] = {"temp", "power", "rx", "ry"};

ir::Function build_hotspot_pe(const HotspotConfig& cfg) {
  const Type t = Type::scalar_of(cfg.elem);
  FunctionBuilder f0("f0", FuncKind::Pipe);
  for (const char* name : kHotspotInputs) f0.param(t, name);
  f0.param(t, "tout");

  const auto cols = static_cast<std::int64_t>(cfg.cols);
  const auto te = f0.offset("temp", +1, "t_east");
  const auto tw = f0.offset("temp", -1, "t_west");
  const auto ts = f0.offset("temp", +cols, "t_south");
  const auto tn = f0.offset("temp", -cols, "t_north");

  const auto l = [](const std::string& n) { return Operand::local(n); };
  const auto hsum = f0.instr(Opcode::Add, t, {l(te), l(tw)});
  const auto vsum = f0.instr(Opcode::Add, t, {l(tn), l(ts)});
  // Two *identical* doublings of the centre temperature: the fabric
  // synthesizer merges them (CSE), the cost model counts both — one of the
  // deliberate estimate-vs-actual error sources of Table II.
  const auto hc = f0.instr(Opcode::Mul, t, {l("temp"), Operand::const_int(2)});
  const auto vc = f0.instr(Opcode::Mul, t, {l("temp"), Operand::const_int(2)});
  const auto hterm = f0.instr(Opcode::Sub, t, {l(hsum), l(hc)});
  const auto vterm = f0.instr(Opcode::Sub, t, {l(vsum), l(vc)});
  const auto hweighted = f0.instr(Opcode::Mul, t, {l(hterm), l("rx")});
  const auto vweighted = f0.instr(Opcode::Mul, t, {l(vterm), l("ry")});
  const auto amb = f0.instr(Opcode::Sub, t,
                            {Operand::const_int(kAmbient), l("temp")});
  // Constant divisor: strength-reduced to a shift by the fabric.
  const auto ambq =
      f0.instr(Opcode::Div, t, {l(amb), Operand::const_int(kRz)});
  const auto sum1 = f0.instr(Opcode::Add, t, {l(hweighted), l(vweighted)});
  const auto sum2 = f0.instr(Opcode::Add, t, {l(sum1), l(ambq)});
  const auto sum3 = f0.instr(Opcode::Add, t, {l(sum2), l("power")});
  const auto delta =
      f0.instr(Opcode::Mul, t, {l(sum3), Operand::const_int(kCap)});
  const auto tnew = f0.instr(Opcode::Add, t, {l("temp"), l(delta)}, "t_new");
  f0.store(t, "tout", Operand::local(tnew));
  return std::move(f0).take();
}

}  // namespace

ir::Module make_hotspot(const HotspotConfig& cfg) {
  const std::uint64_t n = cfg.ngs();
  if (cfg.lanes == 0 || n % cfg.lanes != 0) {
    throw std::invalid_argument("make_hotspot: lane count must divide rows*cols");
  }
  const Type t = Type::scalar_of(cfg.elem);
  ModuleBuilder mb("hotspot");
  mb.set_ndrange(n).set_nki(cfg.nki).set_form(cfg.form);

  const std::uint64_t per_lane = n / cfg.lanes;
  mb.reserve_ports((std::size(kHotspotInputs) + 1) * cfg.lanes);
  const auto port_name = [&](const char* base, std::uint32_t lane) {
    return cfg.lanes == 1 ? std::string(base) : lane_port_name(base, lane);
  };
  for (std::uint32_t lane = 0; lane < cfg.lanes; ++lane) {
    for (const char* name : kHotspotInputs) {
      mb.add_input_port(port_name(name, lane), t,
                        ir::AccessPattern::Contiguous, 1,
                        cfg.lanes == 1 ? 0 : per_lane);
    }
    mb.add_output_port(port_name("temp_new", lane), t,
                       ir::AccessPattern::Contiguous, 1,
                       cfg.lanes == 1 ? 0 : per_lane);
  }

  mb.add(build_hotspot_pe(cfg));

  const auto lane_args = [&](std::uint32_t lane) {
    std::vector<Operand> args;
    args.reserve(std::size(kHotspotInputs) + 1);
    for (const char* name : kHotspotInputs) {
      args.push_back(Operand::global(port_name(name, lane)));
    }
    args.push_back(Operand::global(port_name("temp_new", lane)));
    return args;
  };

  FunctionBuilder main("main", FuncKind::Pipe);
  if (cfg.lanes == 1) {
    main.call("f0", lane_args(0), FuncKind::Pipe);
  } else {
    FunctionBuilder f1("f1", FuncKind::Par);
    for (std::uint32_t lane = 0; lane < cfg.lanes; ++lane) {
      f1.call("f0", lane_args(lane), FuncKind::Pipe);
    }
    mb.add(std::move(f1).take());
    main.call("f1", {}, FuncKind::Par);
  }
  mb.add(std::move(main).take());
  return std::move(mb).take();
}

sim::StreamMap hotspot_inputs(const HotspotConfig& cfg, std::uint64_t seed) {
  tytra::SplitMix64 rng(seed);
  const std::uint64_t n = cfg.ngs();
  sim::StreamMap streams;
  auto fill = [&](const char* name, std::int64_t lo, std::int64_t hi) {
    auto& v = streams[name];
    v.resize(n);
    for (auto& x : v) x = static_cast<double>(rng.uniform_int(lo, hi));
  };
  fill("temp", 40, 90);
  fill("power", 0, 9);
  fill("rx", 1, 3);
  fill("ry", 1, 3);
  return streams;
}

std::vector<double> hotspot_reference(const HotspotConfig& cfg,
                                      const sim::StreamMap& inputs) {
  const auto n = static_cast<std::int64_t>(cfg.ngs());
  const auto cols = static_cast<std::int64_t>(cfg.cols);
  const auto& temp = inputs.at("temp");
  const auto& power = inputs.at("power");
  const auto& rx = inputs.at("rx");
  const auto& ry = inputs.at("ry");
  const auto wrap = [&](double v) { return sim::wrap_to_type(v, cfg.elem); };
  const auto at = [&](std::int64_t i) {
    return temp[static_cast<std::size_t>(std::clamp<std::int64_t>(i, 0, n - 1))];
  };

  std::vector<double> out(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const std::size_t u = static_cast<std::size_t>(i);
    const double hsum = wrap(at(i + 1) + at(i - 1));
    const double vsum = wrap(at(i - cols) + at(i + cols));
    const double twice = wrap(temp[u] * 2.0);
    const double hterm = wrap(wrap(hsum - twice) * rx[u]);
    const double vterm = wrap(wrap(vsum - twice) * ry[u]);
    // Integer division truncates toward zero (matching the datapath core).
    const double ambn = wrap(static_cast<double>(kAmbient) - temp[u]);
    const double ambq = wrap(std::trunc(ambn / static_cast<double>(kRz)));
    const double sum = wrap(wrap(wrap(hterm + vterm) + ambq) + power[u]);
    const double delta = wrap(sum * static_cast<double>(kCap));
    out[u] = wrap(temp[u] + delta);
  }
  return out;
}

}  // namespace tytra::kernels
