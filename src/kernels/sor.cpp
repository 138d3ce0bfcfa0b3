// The SOR kernel of the LES weather simulator (paper §II, Figs. 12-14):
// a 7-point stencil solving the Poisson equation for pressure, with a
// relaxation step and an error reduction.

#include <algorithm>
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

constexpr const char* kSorInputs[] = {"p",    "rhs",  "cn1",  "cn2l", "cn2s",
                                      "cn3l", "cn3s", "cn4l", "cn4s"};

/// Builds the per-lane SOR pipeline @f0 (Fig. 12): offsets creating the six
/// neighbour streams, the weighted stencil sum, relaxation, output stream
/// and error reduction.
ir::Function build_sor_pe(const SorConfig& cfg) {
  const Type t = Type::scalar_of(cfg.elem);
  FunctionBuilder f0("f0", FuncKind::Pipe);
  for (const char* name : kSorInputs) f0.param(t, name);
  f0.param(t, "pout");

  const auto im = static_cast<std::int64_t>(cfg.im);
  const auto imjm = static_cast<std::int64_t>(cfg.im) * cfg.jm;
  const auto pip = f0.offset("p", +1, "p_i_pos");
  const auto pin = f0.offset("p", -1, "p_i_neg");
  const auto pjp = f0.offset("p", +im, "p_j_pos");
  const auto pjn = f0.offset("p", -im, "p_j_neg");
  const auto pkp = f0.offset("p", +imjm, "p_k_pos");
  const auto pkn = f0.offset("p", -imjm, "p_k_neg");

  const auto l = [](const std::string& n) { return Operand::local(n); };
  const auto t1 = f0.instr(Opcode::Mul, t, {l("cn2l"), l(pip)});
  const auto t2 = f0.instr(Opcode::Mul, t, {l("cn2s"), l(pin)});
  const auto t3 = f0.instr(Opcode::Mul, t, {l("cn3l"), l(pjp)});
  const auto t4 = f0.instr(Opcode::Mul, t, {l("cn3s"), l(pjn)});
  const auto t5 = f0.instr(Opcode::Mul, t, {l("cn4l"), l(pkp)});
  const auto t6 = f0.instr(Opcode::Mul, t, {l("cn4s"), l(pkn)});
  const auto s1 = f0.instr(Opcode::Add, t, {l(t1), l(t2)});
  const auto s2 = f0.instr(Opcode::Add, t, {l(t3), l(t4)});
  const auto s3 = f0.instr(Opcode::Add, t, {l(t5), l(t6)});
  const auto s4 = f0.instr(Opcode::Add, t, {l(s1), l(s2)});
  const auto s5 = f0.instr(Opcode::Add, t, {l(s4), l(s3)});
  const auto w = f0.instr(Opcode::Mul, t, {l("cn1"), l(s5)});
  const auto d = f0.instr(Opcode::Sub, t, {l(w), l("rhs")});
  // omega is a compile-time constant: the fabric strength-reduces this
  // multiply, the cost model does not (a Table-II error source).
  const auto r =
      f0.instr(Opcode::Mul, t, {l(d), Operand::const_int(cfg.omega)});
  const auto reltmp = f0.instr(Opcode::Sub, t, {l(r), l("p")}, "reltmp");
  const auto pnew = f0.instr(Opcode::Add, t, {l(reltmp), l("p")}, "p_sor");
  f0.store(t, "pout", Operand::local(pnew));
  const auto sq = f0.instr(Opcode::Mul, t, {l(reltmp), l(reltmp)}, "sorErr");
  f0.reduce(Opcode::Add, t, "sorErrAcc", {Operand::local(sq)});
  return std::move(f0).take();
}

}  // namespace

ir::Module make_sor(const SorConfig& cfg) {
  const std::uint64_t n = cfg.ngs();
  if (cfg.lanes == 0 || n % cfg.lanes != 0) {
    throw std::invalid_argument("make_sor: lane count must divide im*jm*km");
  }
  const Type t = Type::scalar_of(cfg.elem);

  ModuleBuilder mb("sor_" + std::string(cfg.lanes > 1 ? "c1x" : "c2") +
                   (cfg.lanes > 1 ? std::to_string(cfg.lanes) : ""));
  mb.set_ndrange(n).set_nki(cfg.nki).set_form(cfg.form);

  const std::uint64_t per_lane = n / cfg.lanes;
  mb.reserve_ports(10 * cfg.lanes);
  if (cfg.lanes == 1) {
    for (const char* name : kSorInputs) mb.add_input_port(name, t);
    mb.add_output_port("p_new", t);
  } else {
    for (std::uint32_t lane = 0; lane < cfg.lanes; ++lane) {
      for (const char* name : kSorInputs) {
        mb.add_input_port(lane_port_name(name, lane), t,
                          ir::AccessPattern::Contiguous, 1, per_lane);
      }
      mb.add_output_port(lane_port_name("p_new", lane), t,
                         ir::AccessPattern::Contiguous, 1, per_lane);
    }
  }

  mb.add(build_sor_pe(cfg));

  const auto lane_args = [&](std::uint32_t lane) {
    std::vector<Operand> args;
    args.reserve(std::size(kSorInputs) + 1);
    for (const char* name : kSorInputs) {
      args.push_back(Operand::global(cfg.lanes == 1 ? name
                                                    : lane_port_name(name, lane)));
    }
    args.push_back(Operand::global(cfg.lanes == 1 ? "p_new"
                                                  : lane_port_name("p_new", lane)));
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

sim::StreamMap sor_inputs(const SorConfig& cfg, std::uint64_t seed) {
  tytra::SplitMix64 rng(seed);
  const std::uint64_t n = cfg.ngs();
  sim::StreamMap streams;
  auto fill = [&](const char* name, std::int64_t lo, std::int64_t hi) {
    auto& v = streams[name];
    v.resize(n);
    for (auto& x : v) x = static_cast<double>(rng.uniform_int(lo, hi));
  };
  fill("p", 1, 7);
  fill("rhs", 0, 2);
  fill("cn1", 1, 3);
  fill("cn2l", 1, 3);
  fill("cn2s", 1, 3);
  fill("cn3l", 1, 3);
  fill("cn3s", 1, 3);
  fill("cn4l", 1, 3);
  fill("cn4s", 1, 3);
  return streams;
}

SorReference sor_reference(const SorConfig& cfg, const sim::StreamMap& inputs) {
  const auto n = static_cast<std::int64_t>(cfg.ngs());
  const auto im = static_cast<std::int64_t>(cfg.im);
  const auto imjm = static_cast<std::int64_t>(cfg.im) * cfg.jm;
  const auto& p = inputs.at("p");
  const auto& rhs = inputs.at("rhs");
  const auto& cn1 = inputs.at("cn1");
  const auto& cn2l = inputs.at("cn2l");
  const auto& cn2s = inputs.at("cn2s");
  const auto& cn3l = inputs.at("cn3l");
  const auto& cn3s = inputs.at("cn3s");
  const auto& cn4l = inputs.at("cn4l");
  const auto& cn4s = inputs.at("cn4s");

  const auto wrap = [&](double v) { return sim::wrap_to_type(v, cfg.elem); };
  const auto at = [&](const std::vector<double>& a, std::int64_t i) {
    return a[static_cast<std::size_t>(std::clamp<std::int64_t>(i, 0, n - 1))];
  };

  SorReference out;
  out.p_new.resize(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const std::size_t u = static_cast<std::size_t>(i);
    double s = wrap(cn2l[u] * at(p, i + 1));
    s = wrap(s + wrap(cn2s[u] * at(p, i - 1)));
    // Mirror the datapath's balanced adder tree exactly: (t1+t2)+(t3+t4)
    // then +(t5+t6); integer adds are associative under wrap, so the
    // grouping below is equivalent.
    s = wrap(s + wrap(wrap(cn3l[u] * at(p, i + im)) + wrap(cn3s[u] * at(p, i - im))));
    s = wrap(s + wrap(wrap(cn4l[u] * at(p, i + imjm)) + wrap(cn4s[u] * at(p, i - imjm))));
    const double w = wrap(cn1[u] * s);
    const double d = wrap(w - rhs[u]);
    const double r = wrap(d * static_cast<double>(cfg.omega));
    const double reltmp = wrap(r - p[u]);
    out.p_new[u] = wrap(reltmp + p[u]);
    const double sq = wrap(reltmp * reltmp);
    out.sor_err_acc = wrap(out.sor_err_acc + sq);
  }
  return out;
}

}  // namespace tytra::kernels
