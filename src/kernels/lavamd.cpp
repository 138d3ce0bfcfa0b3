// The Rodinia LavaMD kernel: particle potential and relocation due to
// mutual forces between particles within a 3-D space. Streamed form: each
// work-item pairs a home particle (x,y,z,q) with a neighbour particle
// (xn,yn,zn); no stream offsets (BRAM-free, as in Table II).

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

constexpr const char* kLavamdInputs[] = {"x", "y", "z", "q", "xn", "yn", "zn"};

ir::Function build_lavamd_pe(const LavamdConfig& cfg) {
  // With DV > 1 the whole datapath is replicated lane-wise: every value
  // and functional unit is dv-wide.
  const Type t = cfg.dv == 1
                     ? Type::scalar_of(cfg.elem)
                     : Type::vector_of(cfg.elem,
                                       static_cast<std::uint16_t>(cfg.dv));
  FunctionBuilder f0("f0", FuncKind::Pipe);
  for (const char* name : kLavamdInputs) f0.param(t, name);
  f0.param(t, "pot_out");

  const auto l = [](const std::string& n) { return Operand::local(n); };
  const auto dx = f0.instr(Opcode::Sub, t, {l("x"), l("xn")}, "dx");
  const auto dy = f0.instr(Opcode::Sub, t, {l("y"), l("yn")}, "dy");
  const auto dz = f0.instr(Opcode::Sub, t, {l("z"), l("zn")}, "dz");
  const auto dx2 = f0.instr(Opcode::Mul, t, {l(dx), l(dx)});
  const auto dy2 = f0.instr(Opcode::Mul, t, {l(dy), l(dy)});
  const auto dz2 = f0.instr(Opcode::Mul, t, {l(dz), l(dz)});
  const auto a1 = f0.instr(Opcode::Add, t, {l(dx2), l(dy2)});
  const auto r2 = f0.instr(Opcode::Add, t, {l(a1), l(dz2)}, "r2");
  const auto rr = f0.instr(Opcode::Sqrt, t, {l(r2)}, "r");
  const auto u1 = f0.instr(Opcode::Mul, t, {l("q"), l(r2)});
  const auto u2 = f0.instr(Opcode::Mul, t, {l("q"), l(rr)});
  const auto u = f0.instr(Opcode::Sub, t, {l(u1), l(u2)}, "u");
  const auto fs = f0.instr(Opcode::Mac, t, {l(dx), l(u), l("q")}, "fs");
  const auto pot = f0.instr(Opcode::Add, t, {l(u), l(fs)}, "pot");
  f0.store(t, "pot_out", Operand::local(pot));
  f0.reduce(Opcode::Add, t, "potAcc", {Operand::local(pot)});
  return std::move(f0).take();
}

}  // namespace

ir::Module make_lavamd(const LavamdConfig& cfg) {
  if (cfg.lanes == 0 || cfg.particles % cfg.lanes != 0) {
    throw std::invalid_argument(
        "make_lavamd: lane count must divide the particle count");
  }
  if (cfg.dv == 0 || (cfg.particles / cfg.lanes) % cfg.dv != 0) {
    throw std::invalid_argument(
        "make_lavamd: vectorization degree must divide the per-lane range");
  }
  const Type t = cfg.dv == 1
                     ? Type::scalar_of(cfg.elem)
                     : Type::vector_of(cfg.elem,
                                       static_cast<std::uint16_t>(cfg.dv));
  ModuleBuilder mb("lavamd");
  mb.set_ndrange(cfg.particles).set_nki(cfg.nki).set_form(cfg.form);

  const std::uint64_t per_lane = cfg.particles / cfg.lanes;
  mb.reserve_ports((std::size(kLavamdInputs) + 1) * cfg.lanes);
  const auto port_name = [&](const char* base, std::uint32_t lane) {
    return cfg.lanes == 1 ? std::string(base) : lane_port_name(base, lane);
  };
  for (std::uint32_t lane = 0; lane < cfg.lanes; ++lane) {
    // Explicit sizing: one word per work-item regardless of DV packing.
    for (const char* name : kLavamdInputs) {
      mb.add_input_port(port_name(name, lane), t,
                        ir::AccessPattern::Contiguous, 1, per_lane);
    }
    mb.add_output_port(port_name("pot", lane), t,
                       ir::AccessPattern::Contiguous, 1, per_lane);
  }

  mb.add(build_lavamd_pe(cfg));

  const auto lane_args = [&](std::uint32_t lane) {
    std::vector<Operand> args;
    args.reserve(std::size(kLavamdInputs) + 1);
    for (const char* name : kLavamdInputs) {
      args.push_back(Operand::global(port_name(name, lane)));
    }
    args.push_back(Operand::global(port_name("pot", lane)));
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

sim::StreamMap lavamd_inputs(const LavamdConfig& cfg, std::uint64_t seed) {
  tytra::SplitMix64 rng(seed);
  sim::StreamMap streams;
  auto fill = [&](const char* name, std::int64_t lo, std::int64_t hi) {
    auto& v = streams[name];
    v.resize(cfg.particles);
    for (auto& x : v) x = static_cast<double>(rng.uniform_int(lo, hi));
  };
  fill("x", -15, 15);
  fill("y", -15, 15);
  fill("z", -15, 15);
  fill("q", 1, 9);
  fill("xn", -15, 15);
  fill("yn", -15, 15);
  fill("zn", -15, 15);
  return streams;
}

LavamdReference lavamd_reference(const LavamdConfig& cfg,
                                 const sim::StreamMap& inputs) {
  const auto& x = inputs.at("x");
  const auto& y = inputs.at("y");
  const auto& z = inputs.at("z");
  const auto& q = inputs.at("q");
  const auto& xn = inputs.at("xn");
  const auto& yn = inputs.at("yn");
  const auto& zn = inputs.at("zn");
  const auto wrap = [&](double v) { return sim::wrap_to_type(v, cfg.elem); };

  LavamdReference out;
  out.pot.resize(cfg.particles);
  for (std::size_t i = 0; i < cfg.particles; ++i) {
    const double dx = wrap(x[i] - xn[i]);
    const double dy = wrap(y[i] - yn[i]);
    const double dz = wrap(z[i] - zn[i]);
    const double r2 = wrap(wrap(wrap(dx * dx) + wrap(dy * dy)) + wrap(dz * dz));
    const double r = wrap(std::floor(std::sqrt(r2)));
    const double u = wrap(wrap(q[i] * r2) - wrap(q[i] * r));
    const double fs = wrap(dx * u + q[i]);
    const double pot = wrap(u + fs);
    out.pot[i] = pot;
    out.pot_acc = wrap(out.pot_acc + pot);
  }
  return out;
}

}  // namespace tytra::kernels
