// Built-in lint rules that need only the IR structure (and the shared
// AnalysisSummary): dead Manage-IR objects, unused values, pipeline-shape
// hazards and foldable work. Device-priced rules live in rules_cost.cpp.

#include <cstdint>
#include <cstdlib>
#include <string>
#include <unordered_set>
#include <vector>

#include "rules.hpp"
#include "tytra/ir/instr.hpp"

namespace tytra::ir::lint {

std::vector<const FunctionSummary*> reachable_functions(const Context& ctx) {
  std::vector<const FunctionSummary*> out;
  const std::vector<FunctionSummary>& fns = ctx.summary.functions;
  std::vector<bool> seen(fns.size(), false);
  std::vector<std::size_t> work;
  if (ctx.summary.entry_index != kNoFunction) {
    work.push_back(ctx.summary.entry_index);
    seen[ctx.summary.entry_index] = true;
  }
  while (!work.empty()) {
    const FunctionSummary& fs = fns[work.back()];
    work.pop_back();
    out.push_back(&fs);
    for (const std::size_t callee : fs.callees) {
      if (callee == kNoFunction || seen[callee]) continue;
      seen[callee] = true;
      work.push_back(callee);
    }
  }
  return out;
}

namespace {

void rule_unused_memobj(const Context& ctx, Reporter& rep) {
  for (const MemObject& mem : ctx.module.memobjs) {
    bool used = false;
    for (const StreamObject& s : ctx.module.streamobjs) {
      if (s.memobj == mem.name) { used = true; break; }
    }
    if (!used) {
      rep.report("memory object @" + mem.name +
                     " is not read or written by any stream object",
                 mem.loc);
    }
  }
}

void rule_unused_streamobj(const Context& ctx, Reporter& rep) {
  for (const StreamObject& s : ctx.module.streamobjs) {
    bool used = false;
    for (const PortBinding& port : ctx.module.ports) {
      if (port.streamobj == s.name) { used = true; break; }
    }
    if (!used) {
      rep.report("stream object @" + s.name +
                     " is not bound to any @main port",
                 s.loc);
    }
  }
}

void rule_unused_param(const Context& ctx, Reporter& rep) {
  for (const FunctionSummary* fs : reachable_functions(ctx)) {
    const Function& fn = *fs->func;
    if (fn.params.empty()) continue;
    std::unordered_set<std::string_view> used;
    for (const Instr* instr : fs->instrs) {
      for (const Operand& a : instr->args) {
        if (a.kind == Operand::Kind::Local) used.insert(a.name);
      }
      // An output parameter is "used" by the store into the port global of
      // the same name (`ui24 @out = mov ...` binds the call-site @out).
      if (instr->result_global) used.insert(instr->result);
    }
    for (const OffsetDecl* off : fs->offsets) used.insert(off->base);
    for (const Call* call : fs->calls) {
      for (const Operand& a : call->args) {
        if (a.kind == Operand::Kind::Local) used.insert(a.name);
      }
    }
    for (const Param& p : fn.params) {
      if (!used.contains(p.name)) {
        rep.report("parameter %" + p.name + " of @" + fn.name +
                       " is never used",
                   fn.loc);
      }
    }
  }
}

void rule_unreachable_function(const Context& ctx, Reporter& rep) {
  std::unordered_set<const Function*> reachable;
  for (const FunctionSummary* fs : reachable_functions(ctx)) {
    reachable.insert(fs->func);
  }
  for (const Function& fn : ctx.module.functions) {
    if (!reachable.contains(&fn)) {
      rep.report("function @" + fn.name + " is not reachable from @main",
                 fn.loc);
    }
  }
}

void rule_seq_serializes_pipeline(const Context& ctx, Reporter& rep) {
  // A call-only pipe wrapper (like @main) is not a compute stage; only a
  // pipe that actually holds instructions establishes a streaming pipeline
  // for a seq PE to stall.
  bool compute_pipe = false;
  std::vector<const Function*> seqs;
  for (const FunctionSummary* fs : reachable_functions(ctx)) {
    if (fs->func->kind == FuncKind::Pipe && !fs->instrs.empty()) {
      compute_pipe = true;
    }
    if (fs->func->kind == FuncKind::Seq) seqs.push_back(fs->func);
  }
  if (!compute_pipe) return;
  for (const Function* fn : seqs) {
    rep.report("seq function @" + fn->name +
                   " serializes the streaming pipeline: each work-item "
                   "occupies the PE for NI cycles while pipe stages idle",
               fn->loc);
  }
}

void rule_lanes_indivisible(const Context& ctx, Reporter& rep) {
  const DesignParams& p = ctx.summary.params;
  if (p.knl > 1 && p.ngs > 0 && p.ngs % p.knl != 0) {
    rep.report("NGS " + std::to_string(p.ngs) + " is not divisible by KNL " +
               std::to_string(p.knl) +
               "; the replicated lanes underfill on the last work-items");
  }
}

void rule_duplicate_reduction(const Context& ctx, Reporter& rep) {
  for (const FunctionSummary* fs : reachable_functions(ctx)) {
    const auto& instrs = fs->instrs;
    for (std::size_t i = 0; i < instrs.size(); ++i) {
      if (!instrs[i]->result_global) continue;
      for (std::size_t j = 0; j < i; ++j) {
        if (!instrs[j]->result_global) continue;
        if (instrs[i]->op == instrs[j]->op &&
            instrs[i]->result == instrs[j]->result &&
            instrs[i]->args == instrs[j]->args) {
          rep.report("reduction into @" + instrs[i]->result +
                         " duplicates an identical reduction in @" +
                         fs->func->name + "; the fold is applied twice",
                     instrs[i]->loc);
          break;
        }
      }
    }
  }
}

void rule_dead_port(const Context& ctx, Reporter& rep) {
  if (ctx.module.ports.empty()) return;
  std::unordered_set<std::string_view> referenced;
  for (const FunctionSummary* fs : reachable_functions(ctx)) {
    for (const Instr* instr : fs->instrs) {
      if (instr->result_global) referenced.insert(instr->result);
      for (const Operand& a : instr->args) {
        if (a.kind == Operand::Kind::Global) referenced.insert(a.name);
      }
    }
    for (const OffsetDecl* off : fs->offsets) referenced.insert(off->base);
    for (const Call* call : fs->calls) {
      for (const Operand& a : call->args) {
        if (a.kind == Operand::Kind::Global) referenced.insert(a.name);
      }
    }
  }
  for (const PortBinding& port : ctx.module.ports) {
    if (!referenced.contains(port.name)) {
      rep.report("port @main." + port.name +
                     " is never referenced by the compute-IR reachable "
                     "from @main",
                 port.loc);
    }
  }
}

void rule_pipeline_underfill(const Context& ctx, Reporter& rep) {
  const DesignParams& p = ctx.summary.params;
  if (p.ngs > 0 && p.kpd > 0 &&
      p.ngs < static_cast<std::uint64_t>(p.kpd)) {
    rep.report("NDRange of " + std::to_string(p.ngs) +
               " work-items is smaller than the pipeline depth (KPD " +
               std::to_string(p.kpd) + "); the pipeline never fills");
  }
}

void rule_offset_out_of_range(const Context& ctx, Reporter& rep) {
  const std::uint64_t ngs = ctx.summary.params.ngs;
  if (ngs == 0) return;
  for (const FunctionSummary* fs : reachable_functions(ctx)) {
    for (const OffsetDecl* off : fs->offsets) {
      const std::uint64_t magnitude =
          static_cast<std::uint64_t>(std::llabs(off->offset));
      if (magnitude >= ngs) {
        rep.report("offset !" + std::string(off->offset >= 0 ? "+" : "") +
                       std::to_string(off->offset) + " on %" + off->base +
                       " reaches outside the NDRange (NGS " +
                       std::to_string(ngs) + ")",
                   off->loc);
      }
    }
  }
}

void rule_constant_foldable(const Context& ctx, Reporter& rep) {
  for (const FunctionSummary* fs : reachable_functions(ctx)) {
    for (const Instr* instr : fs->instrs) {
      if (instr->args.empty()) continue;
      bool all_const = true;
      for (const Operand& a : instr->args) {
        if (!a.is_const()) { all_const = false; break; }
      }
      if (all_const) {
        rep.report("all operands of this " +
                       std::string(opcode_name(instr->op)) +
                       " are constants; the result is foldable at "
                       "compile time",
                   instr->loc);
      }
    }
  }
}

}  // namespace

void register_structure_rules(Registry& registry) {
  registry.add({{"TL001", "unused-memobj", Severity::Warning,
                 "memory object is not connected to any stream object"},
                rule_unused_memobj});
  registry.add({{"TL002", "unused-streamobj", Severity::Warning,
                 "stream object is not bound to any @main port"},
                rule_unused_streamobj});
  registry.add({{"TL003", "unused-param", Severity::Warning,
                 "function parameter is never read or stored through"},
                rule_unused_param});
  registry.add({{"TL004", "unreachable-function", Severity::Warning,
                 "function is not reachable from @main"},
                rule_unreachable_function});
  registry.add({{"TL005", "seq-serializes-pipeline", Severity::Warning,
                 "a seq PE amid compute pipes serializes the stream"},
                rule_seq_serializes_pipeline});
  registry.add({{"TL007", "lanes-indivisible", Severity::Warning,
                 "NGS does not divide across the KNL replicated lanes"},
                rule_lanes_indivisible});
  registry.add({{"TL009", "duplicate-reduction", Severity::Warning,
                 "identical reduction into the same accumulator twice"},
                rule_duplicate_reduction});
  registry.add({{"TL010", "dead-port", Severity::Warning,
                 "@main port never referenced by reachable compute-IR"},
                rule_dead_port});
  registry.add({{"TL011", "pipeline-underfill", Severity::Warning,
                 "NDRange smaller than the pipeline depth (KPD)"},
                rule_pipeline_underfill});
  registry.add({{"TL012", "offset-out-of-range", Severity::Error,
                 "stream offset reaches outside the NDRange"},
                rule_offset_out_of_range});
  registry.add({{"TL013", "constant-foldable", Severity::Warning,
                 "instruction with all-constant operands"},
                rule_constant_foldable});
}

}  // namespace tytra::ir::lint
