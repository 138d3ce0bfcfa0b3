// A coarse-grained two-stage pipeline (paper Fig. 7 configuration 3 and
// Fig. 8): @main chains @stageA and @stageB; the intermediate stream is a
// first-class Manage-IR object; @stageB folds in a single-cycle comb
// block for the final scale-and-saturate.

#include <algorithm>
#include <cmath>

#include "tytra/kernels/coarse.hpp"

#include "tytra/ir/builder.hpp"
#include "tytra/support/rng.hpp"

namespace tytra::kernels {

namespace {

using ir::FuncKind;
using ir::FunctionBuilder;
using ir::ModuleBuilder;
using ir::Opcode;
using ir::Operand;
using ir::Type;

}  // namespace

ir::Module make_coarse_pipeline(const CoarseConfig& cfg) {
  const Type t = Type::scalar_of(cfg.elem);
  ModuleBuilder mb("coarse2");
  mb.set_ndrange(cfg.items).set_nki(cfg.nki).set_form(cfg.form);
  mb.add_input_port("x", t);
  mb.add_input_port("w", t);
  mb.add_output_port("mid", t);  // inter-stage stream
  mb.add_output_port("y", t);

  // Stage A: 3-point stencil sum -> @mid.
  FunctionBuilder fa("stageA", FuncKind::Pipe);
  fa.param(t, "x");
  const auto xp = fa.offset("x", +1);
  const auto xn = fa.offset("x", -1);
  const auto s1 = fa.instr(Opcode::Add, t, {Operand::local(xp), Operand::local(xn)});
  const auto s2 = fa.instr(Opcode::Add, t, {Operand::local(s1), Operand::local("x")});
  fa.store(t, "mid", Operand::local(s2));
  mb.add(std::move(fa).take());

  // Comb block: saturating clamp (single-cycle logic only).
  FunctionBuilder comb("clampc", FuncKind::Comb);
  comb.param(t, "v");
  const auto clamped = comb.instr(
      Opcode::Min, t, {Operand::local("v"), Operand::const_int(60000)});
  comb.store(t, "y", Operand::local(clamped));
  mb.add(std::move(comb).take());

  // Stage B: weight the intermediate stream, then clamp through the comb.
  FunctionBuilder fb("stageB", FuncKind::Pipe);
  fb.param(t, "mid");
  fb.param(t, "w");
  const auto prod =
      fb.instr(Opcode::Mul, t, {Operand::local("mid"), Operand::local("w")});
  const auto shifted =
      fb.instr(Opcode::LShr, t, {Operand::local(prod), Operand::const_int(2)});
  fb.call("clampc", {Operand::local(shifted)}, FuncKind::Comb);
  mb.add(std::move(fb).take());

  FunctionBuilder main_fn("main", FuncKind::Pipe);
  main_fn.call("stageA", {Operand::global("x")}, FuncKind::Pipe);
  main_fn.call("stageB", {Operand::global("mid"), Operand::global("w")},
               FuncKind::Pipe);
  mb.add(std::move(main_fn).take());
  return std::move(mb).take();
}

sim::StreamMap coarse_inputs(const CoarseConfig& cfg, std::uint64_t seed) {
  tytra::SplitMix64 rng(seed);
  sim::StreamMap streams;
  auto& x = streams["x"];
  auto& w = streams["w"];
  x.resize(cfg.items);
  w.resize(cfg.items);
  for (auto& v : x) v = static_cast<double>(rng.uniform_int(0, 255));
  for (auto& v : w) v = static_cast<double>(rng.uniform_int(1, 15));
  return streams;
}

std::vector<double> coarse_reference(const CoarseConfig& cfg,
                                     const sim::StreamMap& inputs) {
  const auto& x = inputs.at("x");
  const auto& w = inputs.at("w");
  const auto n = static_cast<std::int64_t>(cfg.items);
  const auto wrap = [&](double v) { return sim::wrap_to_type(v, cfg.elem); };
  const auto at = [&](std::int64_t i) {
    return x[static_cast<std::size_t>(std::clamp<std::int64_t>(i, 0, n - 1))];
  };
  std::vector<double> y(cfg.items);
  for (std::int64_t i = 0; i < n; ++i) {
    const double mid = wrap(wrap(at(i + 1) + at(i - 1)) + at(i));
    const double prod = wrap(mid * w[static_cast<std::size_t>(i)]);
    const double shifted =
        std::floor(prod / 4.0);  // lshr 2 on a non-negative value
    y[static_cast<std::size_t>(i)] = std::min(shifted, 60000.0);
  }
  return y;
}

}  // namespace tytra::kernels
