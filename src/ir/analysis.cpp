#include "tytra/ir/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>

namespace tytra::ir {

// ---------------------------------------------------------------------------
// Configuration tree
// ---------------------------------------------------------------------------

namespace {

/// Name -> index map over a module's functions; first definition wins,
/// matching Module::find_function.
using FunctionIndex = std::unordered_map<std::string_view, std::size_t>;

FunctionIndex index_functions(const Module& mod) {
  FunctionIndex index;
  index.reserve(mod.functions.size());
  for (std::size_t i = 0; i < mod.functions.size(); ++i) {
    index.emplace(mod.functions[i].name, i);
  }
  return index;
}

ConfigNode build_node(const Module& mod, const FunctionIndex& index,
                      const Function& f) {
  ConfigNode node;
  node.func = &f;
  node.kind = f.kind;
  for (const auto& item : f.body) {
    const auto* call = std::get_if<Call>(&item);
    if (call == nullptr) continue;
    const auto it = index.find(call->callee);
    if (it != index.end()) {
      node.children.push_back(build_node(mod, index, mod.functions[it->second]));
    }
  }
  return node;
}

ConfigNode build_config_tree(const Module& module, const FunctionIndex& index) {
  const Function* main = module.entry();
  if (main == nullptr) return {};
  ConfigNode root = build_node(module, index, *main);
  // @main is a plain wrapper; elide it when it has exactly one child.
  if (root.children.size() == 1) return root.children.front();
  return root;
}

void format_node(std::ostringstream& os, const ConfigNode& node, int indent) {
  for (int i = 0; i < indent; ++i) os << "  ";
  os << func_kind_name(node.kind) << " @"
     << (node.func != nullptr ? node.func->name : std::string("?")) << "\n";
  for (const auto& child : node.children) format_node(os, child, indent + 1);
}

}  // namespace

ConfigNode build_config_tree(const Module& module) {
  return build_config_tree(module, index_functions(module));
}

std::string format_config_tree(const ConfigNode& root) {
  std::ostringstream os;
  format_node(os, root, 0);
  return os.str();
}

std::string_view config_class_name(ConfigClass c) {
  switch (c) {
    case ConfigClass::C1: return "C1";
    case ConfigClass::C2: return "C2";
    case ConfigClass::C3: return "C3";
    case ConfigClass::C4: return "C4";
    case ConfigClass::C5: return "C5";
  }
  return "?";
}

namespace {

std::uint32_t max_port_lanes(const Module& mod) {
  std::uint32_t dv = 1;
  for (const auto& p : mod.ports) dv = std::max<std::uint32_t>(dv, p.type.lanes);
  return dv;
}

ConfigClass classify_tree(const ConfigNode& tree, std::uint32_t dv) {
  if (tree.kind == FuncKind::Seq) {
    return dv > 1 ? ConfigClass::C5 : ConfigClass::C4;
  }
  if (tree.kind == FuncKind::Par) {
    return ConfigClass::C1;
  }
  return dv > 1 ? ConfigClass::C3 : ConfigClass::C2;
}

std::uint32_t lane_count_of_tree(const ConfigNode& tree) {
  if (tree.kind != FuncKind::Par) return 1;
  std::uint32_t lanes = 0;
  for (const auto& child : tree.children) {
    if (child.kind == FuncKind::Pipe || child.kind == FuncKind::Seq) ++lanes;
  }
  return std::max<std::uint32_t>(lanes, 1);
}

}  // namespace

ConfigClass classify_config(const Module& module) {
  const ConfigNode tree = build_config_tree(module);
  return classify_tree(tree, max_port_lanes(module));
}

// ---------------------------------------------------------------------------
// Scheduling
// ---------------------------------------------------------------------------

namespace {

/// The one ASAP body walk, shared by the public one-off scheduler and the
/// memoizing summary pass; they differ only in how a callee's pipeline
/// depth is obtained (`child_depth`: recursive there, memo lookup here).
/// Keeping a single walk is what makes the two paths bit-identical.
template <class ChildDepthFn>
FunctionSchedule schedule_body(const Module& module, const Function& function,
                               ChildDepthFn&& child_depth) {
  FunctionSchedule sched;
  for (const auto& p : function.params) sched.ready_at[p.name] = 0;

  auto operand_ready = [&](const Operand& op) -> int {
    if (op.kind == Operand::Kind::Local) {
      const auto it = sched.ready_at.find(op.name);
      return it != sched.ready_at.end() ? it->second : 0;
    }
    return 0;  // constants, ports and accumulators are always ready
  };

  int depth = 0;
  for (const auto& item : function.body) {
    if (const auto* off = std::get_if<OffsetDecl>(&item)) {
      // Offset streams are produced by the stream-control buffers ahead of
      // the datapath; they are ready at cycle 0 of the PE.
      sched.ready_at[off->result] = 0;
      continue;
    }
    if (const auto* instr = std::get_if<Instr>(&item)) {
      int ready = 0;
      for (const auto& a : instr->args) ready = std::max(ready, operand_ready(a));
      const int latency = op_latency(instr->op, instr->type.scalar);
      sched.issue_at.push_back(ready);
      const int avail = ready + latency;
      if (!instr->result_global) sched.ready_at[instr->result] = avail;
      depth = std::max(depth, avail);
      continue;
    }
    const auto& call = std::get<Call>(item);
    const Function* callee = module.find_function(call.callee);
    if (callee == nullptr) continue;
    if (callee->kind == FuncKind::Comb) {
      depth = std::max(depth, 1);  // single-cycle custom combinatorial block
    } else {
      // Coarse-grained pipeline: the child's depth adds to ours.
      const int child = child_depth(*callee);
      if (function.kind == FuncKind::Par) {
        depth = std::max(depth, child);
      } else {
        depth += child;
      }
    }
  }
  sched.depth = depth;
  return sched;
}

}  // namespace

FunctionSchedule schedule_function(const Module& module, const Function& function) {
  return schedule_body(module, function, [&](const Function& callee) {
    return schedule_function(module, callee).depth;
  });
}

int pipeline_depth(const Module& module) {
  const Function* main = module.entry();
  if (main == nullptr) return 0;
  return schedule_function(module, *main).depth;
}

// ---------------------------------------------------------------------------
// One-traversal summary
// ---------------------------------------------------------------------------

namespace {

/// Collects the leaf PE (pipe/seq) function indices reachable from `fi`,
/// visiting every call site (so replicated lanes revisit the same body) —
/// the index-based twin of the legacy visit_pes.
void visit_pes(const Module& mod, const FunctionIndex& index, std::size_t fi,
               std::vector<std::size_t>& pes) {
  const Function& f = mod.functions[fi];
  bool has_pe_children = false;
  for (const auto& item : f.body) {
    const auto* call = std::get_if<Call>(&item);
    if (call == nullptr) continue;
    const auto it = index.find(call->callee);
    if (it == index.end()) continue;
    if (mod.functions[it->second].kind != FuncKind::Comb) has_pe_children = true;
    visit_pes(mod, index, it->second, pes);
  }
  if (!has_pe_children &&
      (f.kind == FuncKind::Pipe || f.kind == FuncKind::Seq)) {
    pes.push_back(fi);
  }
}

}  // namespace

const FunctionSummary* AnalysisSummary::find(std::string_view name) const {
  for (const auto& fs : functions) {
    if (fs.func != nullptr && fs.func->name == name) return &fs;
  }
  return nullptr;
}

AnalysisSummary summarize(const Module& module) {
  AnalysisSummary s;
  s.module = &module;
  const FunctionIndex index = index_functions(module);
  const std::size_t nf = module.functions.size();
  s.functions.resize(nf);

  // Pass 1: partition each body once and accumulate own-instruction stats.
  for (std::size_t i = 0; i < nf; ++i) {
    FunctionSummary& fs = s.functions[i];
    fs.func = &module.functions[i];
    const auto& body = fs.func->body;
    fs.instrs.reserve(body.size());
    for (const auto& item : body) {
      if (const auto* instr = std::get_if<Instr>(&item)) {
        fs.instrs.push_back(instr);
        fs.latency_sum += op_latency(instr->op, instr->type.scalar);
      } else if (const auto* off = std::get_if<OffsetDecl>(&item)) {
        fs.offsets.push_back(off);
      } else {
        fs.calls.push_back(&std::get<Call>(item));
      }
    }
    s.offset_count += fs.offsets.size();
  }

  // Pass 2: schedule each function exactly once, callee-first; the shared
  // schedule_body walk reads child pipeline depths from the memo instead
  // of re-scheduling them per call site (the legacy recursion re-derives
  // a child's schedule at every call, which is exponential on deep
  // replicated trees). The cycle guard only matters for unverified
  // modules; verified call graphs are acyclic.
  enum : unsigned char { kUnvisited, kVisiting, kDone };
  std::vector<unsigned char> state(nf, kUnvisited);
  auto schedule_one = [&](auto&& self, std::size_t fi) -> void {
    if (state[fi] != kUnvisited) return;
    state[fi] = kVisiting;
    const FunctionSummary& fs = s.functions[fi];
    for (const Call* call : fs.calls) {
      const auto it = index.find(call->callee);
      if (it != index.end() && state[it->second] == kUnvisited) {
        self(self, it->second);
      }
    }
    s.functions[fi].schedule =
        schedule_body(module, *fs.func, [&](const Function& callee) {
          const auto it = index.find(callee.name);
          return it != index.end() ? s.functions[it->second].schedule.depth : 0;
        });
    state[fi] = kDone;
  };
  for (std::size_t i = 0; i < nf; ++i) schedule_one(schedule_one, i);

  // Pass 3: reachable-instruction counts, children counted per call site.
  // Counts are integers held in doubles, so memoized grouping is exact.
  state.assign(nf, kUnvisited);
  auto count_one = [&](auto&& self, std::size_t fi) -> void {
    if (state[fi] != kUnvisited) return;
    state[fi] = kVisiting;
    FunctionSummary& fs = s.functions[fi];
    double count = static_cast<double>(fs.instrs.size());
    for (const Call* call : fs.calls) {
      const auto it = index.find(call->callee);
      if (it == index.end()) continue;
      if (state[it->second] == kUnvisited) self(self, it->second);
      count += s.functions[it->second].instr_count_reachable;
    }
    fs.instr_count_reachable = count;
    state[fi] = kDone;
  };
  for (std::size_t i = 0; i < nf; ++i) count_one(count_one, i);

  // Configuration tree and class.
  s.tree = build_config_tree(module, index);
  const std::uint32_t dv = max_port_lanes(module);
  s.config = classify_tree(s.tree, dv);

  // Port resolution: stream-object stride and memory-object range, each
  // looked up once. Builder-generated modules emit one (memobj,
  // streamobj, port) triple per add_*_port call, so the i-th port's
  // objects sit at position i — probe positionally first and build the
  // hashed indices only if a module (e.g. hand-written IR) breaks that
  // layout. First definition wins on fallback, like Module::find_*.
  std::unordered_map<std::string_view, const StreamObject*> so_index;
  std::unordered_map<std::string_view, const MemObject*> mo_index;
  bool indices_built = false;
  const auto build_indices = [&] {
    if (indices_built) return;
    indices_built = true;
    so_index.reserve(module.streamobjs.size());
    for (const auto& so : module.streamobjs) so_index.emplace(so.name, &so);
    mo_index.reserve(module.memobjs.size());
    for (const auto& mo : module.memobjs) mo_index.emplace(mo.name, &mo);
  };
  s.ports.reserve(module.ports.size());
  for (std::size_t i = 0; i < module.ports.size(); ++i) {
    const PortBinding& p = module.ports[i];
    PortSummary ps;
    ps.port = &p;
    ps.addr_range_words = module.meta.global_size;
    const StreamObject* so = nullptr;
    if (i < module.streamobjs.size() && module.streamobjs[i].name == p.streamobj) {
      so = &module.streamobjs[i];
    } else {
      build_indices();
      const auto it = so_index.find(p.streamobj);
      if (it != so_index.end()) so = it->second;
    }
    if (so != nullptr) {
      ps.stride_words = so->stride_words;
      const MemObject* mo = nullptr;
      if (i < module.memobjs.size() && module.memobjs[i].name == so->memobj) {
        mo = &module.memobjs[i];
      } else {
        build_indices();
        const auto it = mo_index.find(so->memobj);
        if (it != mo_index.end()) mo = it->second;
      }
      if (mo != nullptr) ps.addr_range_words = mo->size_words;
    }
    s.ports.push_back(ps);
  }

  // Table-I parameters, from the pieces above.
  DesignParams& params = s.params;
  params.ngs = module.meta.global_size;
  params.nki = module.meta.nki;
  params.form = module.meta.form;
  params.fd = module.meta.freq_hz;
  params.dv = dv;
  params.knl = lane_count_of_tree(s.tree);
  // Each lane is serviced by its own stream objects (Fig. 14), so the
  // words-per-tuple of one work-item is the per-lane port count.
  params.nwpt = static_cast<double>(module.ports.size()) /
                std::max<std::uint32_t>(params.knl, 1);
  const FunctionSummary* main_fs = s.entry();
  params.kpd = main_fs != nullptr ? main_fs->schedule.depth : 0;
  {
    const double total =
        main_fs != nullptr ? main_fs->instr_count_reachable : 0.0;
    const double lanes = params.knl;
    const double per_pe = lanes > 0 ? total / lanes : total;
    params.ni = std::max(1.0, per_pe);
  }

  // Noff: the largest stream offset anywhere, plus port initial offsets.
  std::uint64_t noff = 0;
  for (const auto& fs : s.functions) {
    for (const auto* off : fs.offsets) {
      noff = std::max<std::uint64_t>(
          noff, static_cast<std::uint64_t>(std::llabs(off->offset)));
    }
  }
  for (const auto& p : module.ports) {
    noff = std::max<std::uint64_t>(
        noff, static_cast<std::uint64_t>(std::llabs(p.init_offset)));
  }
  params.noff = noff;

  // NTO: for pipelined PEs the initiation interval per streamed word; for
  // sequential PEs the mean per-instruction cycle count.
  std::vector<std::size_t> pes;
  if (const Function* main = module.entry()) {
    const auto it = index.find(main->name);
    if (it != index.end()) visit_pes(module, index, it->second, pes);
  }
  const bool sequential =
      s.tree.kind == FuncKind::Seq ||
      (!pes.empty() && module.functions[pes.front()].kind == FuncKind::Seq);
  if (sequential) {
    double cycles = 0;
    double n = 0;
    for (const std::size_t pe : pes) {
      cycles += s.functions[pe].latency_sum;
      n += static_cast<double>(s.functions[pe].instrs.size());
    }
    params.nto = n > 0 ? cycles / n : 1.0;
  } else {
    params.nto = module.meta.ii;
    // For a pipeline the compute term in the EKIT expressions is
    // NGS*NWPT*NTO*NI/(FD*KNL*DV) with NWPT*NTO*NI = cycles per work-item:
    // the pipeline consumes the NWPT-word tuple word-serially at II cycles
    // per word, so the per-item cost carried by NI is 1.
    params.ni = 1.0;
  }
  return s;
}

// ---------------------------------------------------------------------------
// Parameter extraction (legacy entry points over the summary)
// ---------------------------------------------------------------------------

std::uint32_t lane_count(const Module& module) {
  return lane_count_of_tree(build_config_tree(module));
}

double instructions_per_pe(const Module& module) {
  const Function* main = module.entry();
  if (main == nullptr) return 0.0;
  const AnalysisSummary s = summarize(module);
  const FunctionSummary* main_fs = s.entry();
  const double total = main_fs != nullptr ? main_fs->instr_count_reachable : 0.0;
  const double lanes = s.params.knl;
  return lanes > 0 ? total / lanes : total;
}

DesignParams extract_params(const Module& module) {
  return summarize(module).params;
}

}  // namespace tytra::ir
