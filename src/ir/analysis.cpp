#include "tytra/ir/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace tytra::ir {

// ---------------------------------------------------------------------------
// Configuration tree
// ---------------------------------------------------------------------------

namespace {

ConfigNode build_node(const std::vector<FunctionSummary>& fns, std::size_t fi) {
  const FunctionSummary& fs = fns[fi];
  ConfigNode node;
  node.func = fs.func;
  node.kind = fs.func->kind;
  node.children.reserve(fs.callees.size());
  for (const std::size_t callee : fs.callees) {
    if (callee != kNoFunction) node.children.push_back(build_node(fns, callee));
  }
  return node;
}

ConfigNode build_config_tree(const std::vector<FunctionSummary>& fns,
                             std::size_t entry) {
  if (entry == kNoFunction) return {};
  ConfigNode root = build_node(fns, entry);
  // @main is a plain wrapper; elide it when it has exactly one child.
  if (root.children.size() == 1) return std::move(root.children.front());
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
  return summarize(module).tree;
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
  return summarize(module).config;
}

// ---------------------------------------------------------------------------
// Scheduling
// ---------------------------------------------------------------------------

namespace {

/// One named definition in a function: a param, an offset stream or an
/// instruction result, at its position (params first, then body items).
struct Def {
  std::string_view name;
  std::uint32_t pos;
};

/// Buffers one schedule walk needs, reused across the functions of a
/// summary so the walk allocates only the schedule it returns.
struct ScheduleScratch {
  std::vector<Def> defs;       ///< sorted by (name, position)
  std::vector<int> ready;      ///< availability cycle per position
};

/// The one ASAP body walk, shared by the public one-off scheduler and the
/// memoizing summary pass; they differ only in how the k-th call's callee
/// and its pipeline depth are obtained (`callee`, `child_depth`: a name
/// lookup and recursion there, the resolved index and the memo here).
/// Keeping a single walk is what makes the two paths bit-identical.
///
/// Operand names resolve against the function's definitions sorted once:
/// an instruction issues when the definitions visible at its position are
/// ready (the last one before it; params and offsets at 0), and its
/// arguments' recorded readiness is the name's last definition overall.
template <class CalleeFn, class ChildDepthFn>
FunctionSchedule schedule_body(const Function& function, ScheduleScratch& scratch,
                               CalleeFn&& callee, ChildDepthFn&& child_depth) {
  const auto n_params = static_cast<std::uint32_t>(function.params.size());
  std::vector<Def>& defs = scratch.defs;
  defs.clear();
  for (std::uint32_t i = 0; i < n_params; ++i) {
    defs.push_back({function.params[i].name, i});
  }
  std::size_t n_args = 0;
  std::size_t n_instrs = 0;
  for (std::uint32_t j = 0; j < function.body.size(); ++j) {
    const auto& item = function.body[j];
    if (const auto* off = std::get_if<OffsetDecl>(&item)) {
      defs.push_back({off->result, n_params + j});
    } else if (const auto* instr = std::get_if<Instr>(&item)) {
      ++n_instrs;
      n_args += instr->args.size();
      if (!instr->result_global) defs.push_back({instr->result, n_params + j});
    }
  }
  std::sort(defs.begin(), defs.end(), [](const Def& a, const Def& b) {
    return a.name != b.name ? a.name < b.name : a.pos < b.pos;
  });
  // Params are ready at 0, and so are offset streams: the stream-control
  // buffers produce them ahead of the datapath. Instruction results are
  // filled in as the walk reaches them, before any later position reads
  // them.
  scratch.ready.assign(n_params + function.body.size(), 0);

  FunctionSchedule sched;
  sched.issue_at.reserve(n_instrs);
  sched.arg_ready.reserve(n_args);  // holds definition positions until the end
  constexpr int kUndefined = -1;

  int depth = 0;
  std::size_t call_idx = 0;
  for (std::uint32_t j = 0; j < function.body.size(); ++j) {
    const auto& item = function.body[j];
    const std::uint32_t pos = n_params + j;
    if (std::holds_alternative<OffsetDecl>(item)) continue;
    if (const auto* instr = std::get_if<Instr>(&item)) {
      int ready = 0;
      for (const auto& a : instr->args) {
        if (a.kind != Operand::Kind::Local) {
          // Constants, ports and accumulators are always ready.
          sched.arg_ready.push_back(kUndefined);
          continue;
        }
        const std::string_view name = a.name;
        auto it = std::upper_bound(
            defs.begin(), defs.end(), name,
            [](std::string_view n, const Def& d) { return n < d.name; });
        if (it == defs.begin() || std::prev(it)->name != name) {
          sched.arg_ready.push_back(kUndefined);
          continue;
        }
        --it;
        sched.arg_ready.push_back(static_cast<int>(it->pos));
        // The definition visible here: the last one before this position.
        while (it->pos >= pos && it != defs.begin() &&
               std::prev(it)->name == name) {
          --it;
        }
        if (it->pos < pos) ready = std::max(ready, scratch.ready[it->pos]);
      }
      const int latency = op_latency(instr->op, instr->type.scalar);
      sched.issue_at.push_back(ready);
      const int avail = ready + latency;
      scratch.ready[pos] = avail;
      depth = std::max(depth, avail);
      continue;
    }
    const std::size_t k = call_idx++;
    const Function* fn = callee(k, std::get<Call>(item));
    if (fn == nullptr) continue;
    if (fn->kind == FuncKind::Comb) {
      depth = std::max(depth, 1);  // single-cycle custom combinatorial block
    } else {
      // Coarse-grained pipeline: the child's depth adds to ours.
      const int child = child_depth(k, *fn);
      if (function.kind == FuncKind::Par) {
        depth = std::max(depth, child);
      } else {
        depth += child;
      }
    }
  }
  for (int& r : sched.arg_ready) r = r == kUndefined ? 0 : scratch.ready[r];
  sched.depth = depth;
  return sched;
}

}  // namespace

FunctionSchedule schedule_function(const Module& module, const Function& function) {
  ScheduleScratch scratch;
  return schedule_body(
      function, scratch,
      [&](std::size_t, const Call& call) {
        return module.find_function(call.callee);
      },
      [&](std::size_t, const Function& callee) {
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

/// What the NTO extraction needs of the leaf PEs (pipe/seq functions
/// without PE children): their count, the first one's kind, and their
/// latency and instruction sums in visit order.
struct PeTotals {
  std::size_t count{0};
  FuncKind first_kind{FuncKind::Pipe};
  double cycles{0};
  double instrs{0};
};

/// Accumulates the leaf PEs reachable from `fi`, visiting every call site
/// (so replicated lanes revisit the same body).
void visit_pes(const std::vector<FunctionSummary>& fns, std::size_t fi,
               PeTotals& pes) {
  const FunctionSummary& fs = fns[fi];
  bool has_pe_children = false;
  for (const std::size_t callee : fs.callees) {
    if (callee == kNoFunction) continue;
    if (fns[callee].func->kind != FuncKind::Comb) has_pe_children = true;
    visit_pes(fns, callee, pes);
  }
  if (!has_pe_children &&
      (fs.func->kind == FuncKind::Pipe || fs.func->kind == FuncKind::Seq)) {
    if (pes.count++ == 0) pes.first_kind = fs.func->kind;
    pes.cycles += fs.latency_sum;
    pes.instrs += static_cast<double>(fs.instrs.size());
  }
}

/// (name, position) pairs sorted by name, then position: the name lookup
/// every pass of the summary shares, built once per module.
using NameIndex = std::vector<std::pair<std::string_view, std::size_t>>;

template <class T>
NameIndex index_by_name(const std::vector<T>& items) {
  NameIndex index;
  index.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    index.emplace_back(items[i].name, i);
  }
  std::sort(index.begin(), index.end());
  return index;
}

/// Position of the first item named `name`, or kNoFunction when none is.
std::size_t find_index(const NameIndex& index, std::string_view name) {
  const auto it = std::lower_bound(
      index.begin(), index.end(), name,
      [](const auto& entry, std::string_view n) { return entry.first < n; });
  return it != index.end() && it->first == name ? it->second : kNoFunction;
}

}  // namespace

AnalysisSummary summarize(const Module& module) {
  AnalysisSummary s;
  s.module = &module;
  const std::size_t nf = module.functions.size();
  s.functions.resize(nf);

  // Function names, sorted once: every callee resolves to an index here
  // and no later pass looks a name up.
  const NameIndex by_name = index_by_name(module.functions);
  s.entry_index = find_index(by_name, "main");

  // Pass 1: partition each body once, resolve its callees and accumulate
  // own-instruction stats.
  for (std::size_t i = 0; i < nf; ++i) {
    FunctionSummary& fs = s.functions[i];
    fs.func = &module.functions[i];
    const auto& body = fs.func->body;
    std::size_t n_instrs = 0;
    std::size_t n_offsets = 0;
    for (const auto& item : body) {
      n_instrs += std::holds_alternative<Instr>(item) ? 1 : 0;
      n_offsets += std::holds_alternative<OffsetDecl>(item) ? 1 : 0;
    }
    fs.instrs.reserve(n_instrs);
    fs.offsets.reserve(n_offsets);
    fs.calls.reserve(body.size() - n_instrs - n_offsets);
    fs.callees.reserve(body.size() - n_instrs - n_offsets);
    for (const auto& item : body) {
      if (const auto* instr = std::get_if<Instr>(&item)) {
        fs.instrs.push_back(instr);
        fs.latency_sum += op_latency(instr->op, instr->type.scalar);
      } else if (const auto* off = std::get_if<OffsetDecl>(&item)) {
        fs.offsets.push_back(off);
      } else {
        const auto& call = std::get<Call>(item);
        fs.calls.push_back(&call);
        fs.callees.push_back(find_index(by_name, call.callee));
      }
    }
    s.offset_count += fs.offsets.size();
  }

  // Pass 2: schedule each function exactly once, callee-first; the shared
  // schedule_body walk reads child pipeline depths from the memo instead
  // of re-scheduling them per call site (the one-off recursion re-derives
  // a child's schedule at every call, which is exponential on deep
  // replicated trees). The cycle guard only matters for unverified
  // modules; verified call graphs are acyclic.
  enum : unsigned char { kUnvisited, kVisiting, kDone };
  std::vector<unsigned char> state(nf, kUnvisited);
  ScheduleScratch scratch;
  auto schedule_one = [&](auto&& self, std::size_t fi) -> void {
    if (state[fi] != kUnvisited) return;
    state[fi] = kVisiting;
    const FunctionSummary& fs = s.functions[fi];
    for (const std::size_t callee : fs.callees) {
      if (callee != kNoFunction && state[callee] == kUnvisited) {
        self(self, callee);
      }
    }
    s.functions[fi].schedule = schedule_body(
        *fs.func, scratch,
        [&](std::size_t k, const Call&) -> const Function* {
          return fs.callees[k] != kNoFunction ? s.functions[fs.callees[k]].func
                                              : nullptr;
        },
        [&](std::size_t k, const Function&) {
          return s.functions[fs.callees[k]].schedule.depth;
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
    for (const std::size_t callee : fs.callees) {
      if (callee == kNoFunction) continue;
      if (state[callee] == kUnvisited) self(self, callee);
      count += s.functions[callee].instr_count_reachable;
    }
    fs.instr_count_reachable = count;
    state[fi] = kDone;
  };
  for (std::size_t i = 0; i < nf; ++i) count_one(count_one, i);

  // Configuration tree and class.
  s.tree = build_config_tree(s.functions, s.entry_index);
  const std::uint32_t dv = max_port_lanes(module);
  s.config = classify_tree(s.tree, dv);

  // Port resolution: stream-object stride and memory-object range, each
  // looked up once. Builder-generated modules emit one (memobj,
  // streamobj, port) triple per add_*_port call, so the i-th port's
  // objects sit at position i — probe positionally first and sort the
  // names only if a module (e.g. hand-written IR) breaks that layout.
  // First definition wins on fallback, like Module::find_*.
  NameIndex so_index;
  NameIndex mo_index;
  const auto build_indices = [&] {
    if (so_index.empty()) so_index = index_by_name(module.streamobjs);
    if (mo_index.empty()) mo_index = index_by_name(module.memobjs);
  };
  // Ports whose cost-model inputs repeat (each lane's copy of a port) share
  // the first such port's class; distinct keys are few, so a scan over the
  // class representatives is cheaper than any table.
  std::vector<std::size_t> control_reps;
  std::vector<std::size_t> bandwidth_reps;
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
      const std::size_t at = find_index(so_index, p.streamobj);
      if (at != kNoFunction) so = &module.streamobjs[at];
    }
    if (so != nullptr) {
      ps.stride_words = so->stride_words;
      const MemObject* mo = nullptr;
      if (i < module.memobjs.size() && module.memobjs[i].name == so->memobj) {
        mo = &module.memobjs[i];
      } else {
        build_indices();
        const std::size_t at = find_index(mo_index, so->memobj);
        if (at != kNoFunction) mo = &module.memobjs[at];
      }
      if (mo != nullptr) ps.addr_range_words = mo->size_words;
    }
    ps.control_class = i;
    for (const std::size_t r : control_reps) {
      if (s.ports[r].port->type.total_bits() == p.type.total_bits() &&
          s.ports[r].addr_range_words == ps.addr_range_words) {
        ps.control_class = r;
        break;
      }
    }
    if (ps.control_class == i) control_reps.push_back(i);
    ps.bandwidth_class = i;
    for (const std::size_t r : bandwidth_reps) {
      if (s.ports[r].port->pattern == p.pattern &&
          s.ports[r].stride_words == ps.stride_words) {
        ps.bandwidth_class = r;
        break;
      }
    }
    if (ps.bandwidth_class == i) bandwidth_reps.push_back(i);
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
  PeTotals pes;
  if (s.entry_index != kNoFunction) visit_pes(s.functions, s.entry_index, pes);
  const bool sequential =
      s.tree.kind == FuncKind::Seq ||
      (pes.count > 0 && pes.first_kind == FuncKind::Seq);
  if (sequential) {
    params.nto = pes.instrs > 0 ? pes.cycles / pes.instrs : 1.0;
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
  return summarize(module).params.knl;
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
