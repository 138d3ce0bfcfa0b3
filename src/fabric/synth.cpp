#include "tytra/fabric/synth.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <set>
#include <vector>

#include "tytra/fabric/cores.hpp"
#include "tytra/ir/analysis.hpp"
#include "tytra/support/rng.hpp"

namespace tytra::fabric {

namespace {

using ir::FuncKind;
using ir::Function;
using ir::Instr;
using ir::Module;
using ir::OffsetDecl;
using ir::Opcode;
using ir::Operand;

/// A flattened netlist node for the placement pass.
struct NetNode {
  int id{0};
  std::vector<int> fanin;
};

/// Key identifying a common subexpression within one function body.
struct InstrKey {
  Opcode op;
  ir::Type type;
  std::vector<Operand> args;

  bool operator<(const InstrKey& o) const {
    if (op != o.op) return op < o.op;
    if (type.scalar.kind != o.type.scalar.kind) return type.scalar.kind < o.type.scalar.kind;
    if (type.scalar.bits != o.type.scalar.bits) return type.scalar.bits < o.type.scalar.bits;
    if (type.lanes != o.type.lanes) return type.lanes < o.type.lanes;
    if (args.size() != o.args.size()) return args.size() < o.args.size();
    for (std::size_t i = 0; i < args.size(); ++i) {
      const Operand& a = args[i];
      const Operand& b = o.args[i];
      if (a.kind != b.kind) return a.kind < b.kind;
      if (a.name != b.name) return a.name < b.name;
      if (a.ival != b.ival) return a.ival < b.ival;
      if (a.fval != b.fval) return a.fval < b.fval;
    }
    return false;
  }
};

const Operand* const_operand(const Instr& instr) {
  for (const auto& a : instr.args) {
    if (a.kind == Operand::Kind::ConstInt) return &a;
  }
  return nullptr;
}

/// Resources of one function body (excluding replication), with the
/// synthesizer's local optimizations applied.
ResourceVec function_resources(const Module& mod, const Function& f,
                               const target::DeviceDesc& device,
                               const SynthOptions& opt) {
  ResourceVec total;
  std::set<InstrKey> seen;

  const ir::FunctionSchedule sched = ir::schedule_function(mod, f);
  std::size_t instr_idx = 0;
  std::size_t arg_idx = 0;

  // Per-lane datapath instructions.
  for (const auto& item : f.body) {
    const auto* instr = std::get_if<Instr>(&item);
    if (instr == nullptr) continue;
    const int issue = sched.issue_at[instr_idx++];
    const int* arg_ready = sched.arg_ready.data() + arg_idx;
    arg_idx += instr->args.size();
    if (opt.enable_cse) {
      InstrKey key{instr->op, instr->type, instr->args};
      if (!seen.insert(std::move(key)).second) continue;  // merged away
    }
    const double lanes = instr->type.lanes;
    ResourceVec core;
    const Operand* c = const_operand(*instr);
    if (opt.enable_strength_reduction && c != nullptr &&
        !instr->type.scalar.is_float()) {
      core = core_resources_const_operand(instr->op, instr->type.scalar,
                                          c->ival, device);
    } else {
      core = core_resources(instr->op, instr->type.scalar, device);
    }
    total += core * lanes;

    // Delay-balancing registers: operands produced earlier than this
    // instruction's issue stage ride a register chain (Fig. 13's
    // pass-through pipeline buffers).
    for (const auto& a : instr->args) {
      const int ready = *arg_ready++;
      if (a.kind != Operand::Kind::Local) continue;
      if (issue > ready) {
        total.regs += static_cast<double>(issue - ready) *
                      instr->type.scalar.bits * lanes;
      }
    }
  }

  // Stream-offset buffers: each offset stream is delayed relative to the
  // furthest-ahead one; the base stream is delayed by the maximum positive
  // offset.
  const auto offsets = f.offsets();
  if (!offsets.empty()) {
    std::int64_t max_off = 0;
    for (const auto* o : offsets) max_off = std::max(max_off, o->offset);
    for (const auto* o : offsets) {
      const std::uint64_t depth = static_cast<std::uint64_t>(max_off - o->offset);
      total += offset_buffer_resources(o->type.total_bits(), depth, device);
    }
    if (max_off > 0) {
      // base stream delay line
      const auto& first = *offsets.front();
      total += offset_buffer_resources(first.type.total_bits(),
                                       static_cast<std::uint64_t>(max_off), device);
    }
  }

  // Sequential PEs add an instruction sequencer and operand register file.
  if (f.kind == FuncKind::Seq) {
    const double ni = static_cast<double>(f.instructions().size());
    total.aluts += 80 + 4.0 * ni;
    total.regs += 64;
  }

  // Child functions (coarse-grained pipelines, comb blocks) synthesize
  // once per call site — replicated hardware.
  for (const auto* call : f.calls()) {
    const Function* callee = mod.find_function(call->callee);
    if (callee != nullptr) {
      total += function_resources(mod, *callee, device, opt);
    }
  }
  return total;
}

/// Builds the flattened placement netlist: one node per instruction
/// instance (replicated per call), edges along SSA dependencies.
void build_netlist(const Module& mod, const Function& f,
                   std::vector<NetNode>& nodes) {
  std::map<std::string, int> producer;
  for (const auto& item : f.body) {
    if (const auto* instr = std::get_if<Instr>(&item)) {
      NetNode node;
      node.id = static_cast<int>(nodes.size());
      for (const auto& a : instr->args) {
        if (a.kind == Operand::Kind::Local) {
          const auto it = producer.find(a.name);
          if (it != producer.end()) node.fanin.push_back(it->second);
        }
      }
      if (!instr->result_global) producer[instr->result] = node.id;
      nodes.push_back(std::move(node));
    } else if (const auto* call = std::get_if<ir::Call>(&item)) {
      const Function* callee = mod.find_function(call->callee);
      if (callee != nullptr) build_netlist(mod, *callee, nodes);
    }
  }
}

struct PlacementResult {
  double avg_len{0};
  double crit_len{0};
};

/// Simulated-annealing placement on a square grid; returns wirelength
/// statistics. This is the deliberately expensive pass.
PlacementResult place(const std::vector<NetNode>& nodes, int effort,
                      std::uint64_t seed) {
  PlacementResult res;
  const std::size_t n = nodes.size();
  if (n < 2) return res;
  const int side = static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n) * 1.3)));
  const int cells = side * side;

  std::vector<int> cell_of(n);        // node -> cell
  std::vector<int> node_in(cells, -1);  // cell -> node or -1
  for (std::size_t i = 0; i < n; ++i) {
    cell_of[i] = static_cast<int>(i);
    node_in[i] = static_cast<int>(i);
  }

  auto dist = [&](int ca, int cb) {
    const int ax = ca % side;
    const int ay = ca / side;
    const int bx = cb % side;
    const int by = cb / side;
    return std::abs(ax - bx) + std::abs(ay - by);
  };
  auto node_cost = [&](int v) {
    double c = 0;
    for (const int u : nodes[v].fanin) c += dist(cell_of[v], cell_of[u]);
    return c;
  };

  // Fanout index so move deltas account for consumers too.
  std::vector<std::vector<int>> fanout(n);
  for (std::size_t v = 0; v < n; ++v) {
    for (const int u : nodes[v].fanin) fanout[u].push_back(static_cast<int>(v));
  }
  auto incident_cost = [&](int v) {
    double c = node_cost(v);
    for (const int w : fanout[v]) c += node_cost(w);
    return c;
  };

  SplitMix64 rng(seed);
  const std::int64_t iters =
      static_cast<std::int64_t>(effort) * 400 * static_cast<std::int64_t>(n);
  double temp = static_cast<double>(side);
  const double cooling = std::pow(0.005 / temp, 1.0 / static_cast<double>(iters));

  for (std::int64_t it = 0; it < iters; ++it) {
    const int v = static_cast<int>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    const int target = static_cast<int>(rng.uniform_int(0, cells - 1));
    const int other = node_in[target];
    if (other == v) continue;
    const double before =
        incident_cost(v) + (other >= 0 ? incident_cost(other) : 0.0);
    const int old_cell = cell_of[v];
    cell_of[v] = target;
    if (other >= 0) cell_of[other] = old_cell;
    node_in[target] = v;
    node_in[old_cell] = other;
    const double after =
        incident_cost(v) + (other >= 0 ? incident_cost(other) : 0.0);
    const double delta = after - before;
    if (delta > 0 && rng.next_double() >= std::exp(-delta / std::max(temp, 1e-9))) {
      // reject: undo
      cell_of[v] = old_cell;
      if (other >= 0) cell_of[other] = target;
      node_in[target] = other;
      node_in[old_cell] = v;
    }
    temp *= cooling;
  }

  double total = 0;
  double crit = 0;
  std::size_t edges = 0;
  for (std::size_t v = 0; v < n; ++v) {
    for (const int u : nodes[v].fanin) {
      const double d = dist(cell_of[v], cell_of[u]);
      total += d;
      crit = std::max(crit, d);
      ++edges;
    }
  }
  res.avg_len = edges > 0 ? total / static_cast<double>(edges) : 0.0;
  res.crit_len = crit;
  return res;
}

}  // namespace

SynthReport synthesize(const ir::Module& module,
                       const target::DeviceDesc& device,
                       const SynthOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();
  SynthReport report;

  const Function* main = module.entry();
  if (main == nullptr) return report;

  report.total = function_resources(module, *main, device, options);

  // Per-function (distinct body) breakdown, single instance each.
  for (const auto& f : module.functions) {
    if (f.name == "main") continue;
    SynthOptions leaf = options;
    ResourceVec r;
    // Only the function's own body (children counted in their own rows).
    Function shallow = f;
    shallow.body.clear();
    for (const auto& item : f.body) {
      if (!std::holds_alternative<ir::Call>(item)) shallow.body.push_back(item);
    }
    Module wrapper;
    wrapper.functions.push_back(shallow);
    r = function_resources(wrapper, wrapper.functions.front(), device, leaf);
    report.per_function[f.name] = r;
  }

  // Stream control per port.
  for (const auto& p : module.ports) {
    std::uint64_t range = module.meta.global_size;
    if (const auto* so = module.find_streamobj(p.streamobj)) {
      if (const auto* mo = module.find_memobj(so->memobj)) range = mo->size_words;
    }
    report.total += stream_control_resources(p.type.total_bits(), range, device);
  }

  // Global control & interconnect overhead the cost model does not see.
  report.total.aluts = std::round(report.total.aluts * 1.015);
  report.total.regs = std::round(report.total.regs * 1.01);

  if (options.enable_retiming) {
    report.total.regs = std::round(report.total.regs * 0.97);
  }

  // Placement and Fmax.
  std::vector<NetNode> nodes;
  build_netlist(module, *main, nodes);
  report.netlist_nodes = nodes.size();
  const PlacementResult placement =
      place(nodes, std::max(1, options.effort), options.seed);
  report.avg_wirelength = placement.avg_len;
  report.critical_wirelength = placement.crit_len;
  const double t_logic_ns = 2.2;
  const double t_wire_ns = 0.30 * placement.crit_len;
  const double fmax_wire = 1e9 / (t_logic_ns + t_wire_ns);
  report.fmax_hz = std::min(device.fmax_hz, fmax_wire);

  report.util = utilization(report.total, device);
  report.fits = report.util.fits();

  const auto t1 = std::chrono::steady_clock::now();
  report.synth_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0).count();
  return report;
}

}  // namespace tytra::fabric
