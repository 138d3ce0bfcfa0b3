#include "tytra/cost/resource_model.hpp"

#include <algorithm>
#include <vector>

#include "tytra/ir/analysis.hpp"

namespace tytra::cost {

namespace {

using ir::Function;
using ir::Instr;
using ir::Module;
using ir::Operand;

/// Cost of one function body, children excluded: fitted instruction laws,
/// delay-balancing registers along skewed operand paths, offset buffers,
/// and the sequencer overhead for seq-kind functions. The floating-point
/// accumulation order matches the legacy single-function walk exactly.
ResourceVec own_cost(const ir::FunctionSummary& fs, const DeviceCostDb& db) {
  ResourceVec total;
  const ir::FunctionSchedule& sched = fs.schedule;
  const int* arg_ready = sched.arg_ready.data();

  for (std::size_t i = 0; i < fs.instrs.size(); ++i) {
    const Instr* instr = fs.instrs[i];
    const int issue = sched.issue_at[i];
    const double lanes = instr->type.lanes;
    const Operand* const_arg = nullptr;
    for (const auto& a : instr->args) {
      if (a.kind == Operand::Kind::ConstInt) const_arg = &a;
    }
    if (const_arg != nullptr) {
      total += db.op_cost_const(instr->op, instr->type.scalar, const_arg->ival) *
               lanes;
    } else {
      total += db.op_cost(instr->op, instr->type.scalar) * lanes;
    }

    // Delay-balancing registers along skewed operand paths.
    for (const auto& a : instr->args) {
      const int ready = *arg_ready++;
      if (a.kind != Operand::Kind::Local) continue;
      if (issue > ready) {
        total.regs += static_cast<double>(issue - ready) *
                      instr->type.scalar.bits * lanes;
      }
    }
  }

  // Offset buffers.
  const auto& offsets = fs.offsets;
  if (!offsets.empty()) {
    std::int64_t max_off = 0;
    for (const auto* o : offsets) max_off = std::max(max_off, o->offset);
    for (const auto* o : offsets) {
      const auto depth = static_cast<std::uint64_t>(max_off - o->offset);
      total += db.offset_buffer_cost(o->type.total_bits(), depth);
    }
    if (max_off > 0) {
      total += db.offset_buffer_cost(offsets.front()->type.total_bits(),
                                     static_cast<std::uint64_t>(max_off));
    }
  }

  if (fs.func->kind == ir::FuncKind::Seq) {
    const double ni = static_cast<double>(fs.instrs.size());
    total.aluts += 80 + 4.0 * ni;
    total.regs += 64;
  }

  return total;
}

/// Totals own costs over the call tree: children count per call site
/// (replicated lanes pay per lane), and each distinct callee's total is
/// computed once. Reads only the summary's resolved callee indices.
class TreeCost {
 public:
  TreeCost(const ir::AnalysisSummary& summary, const DeviceCostDb& db)
      : summary_(summary),
        db_(db),
        totals_(summary.functions.size()),
        done_(summary.functions.size(), false) {}

  /// Total of the summary's function `fi`, children included.
  const ResourceVec& total(std::size_t fi) {
    if (!done_[fi]) {
      done_[fi] = true;  // cycle guard; verified call graphs are acyclic
      totals_[fi] = over(summary_.functions[fi]);
    }
    return totals_[fi];
  }

  /// Total of `fs` (a member of the summary or a detached function whose
  /// callees index into it), children included.
  ResourceVec over(const ir::FunctionSummary& fs) {
    ResourceVec t = own_cost(fs, db_);
    for (const std::size_t callee : fs.callees) {
      if (callee != ir::kNoFunction) t += total(callee);
    }
    return t;
  }

 private:
  const ir::AnalysisSummary& summary_;
  const DeviceCostDb& db_;
  std::vector<ResourceVec> totals_;
  std::vector<bool> done_;
};

}  // namespace

ResourceVec estimate_function(const Module& module, const Function& function,
                              const DeviceCostDb& db) {
  // Public single-function entry point: summarize the enclosing module so
  // the walk shares the memoized schedules, then total own costs over the
  // call tree (children per call site, like the design-level estimate).
  // A function that is not a member of `module` (a copy, a synthetic
  // wrapper) is partitioned and scheduled on the spot, its callees
  // resolved against the module, instead of being silently skipped.
  const ir::AnalysisSummary summary = ir::summarize(module);
  TreeCost tree(summary, db);
  for (std::size_t i = 0; i < module.functions.size(); ++i) {
    if (&module.functions[i] == &function) return tree.total(i);
  }
  ir::FunctionSummary fs;
  fs.func = &function;
  for (const auto& item : function.body) {
    if (const auto* instr = std::get_if<Instr>(&item)) {
      fs.instrs.push_back(instr);
    } else if (const auto* off = std::get_if<ir::OffsetDecl>(&item)) {
      fs.offsets.push_back(off);
    } else {
      const auto& call = std::get<ir::Call>(item);
      fs.calls.push_back(&call);
      const Function* callee = module.find_function(call.callee);
      fs.callees.push_back(callee != nullptr
                               ? static_cast<std::size_t>(
                                     callee - module.functions.data())
                               : ir::kNoFunction);
    }
  }
  fs.schedule = ir::schedule_function(module, function);
  return tree.over(fs);
}

ResourceEstimate estimate_resources(const Module& module,
                                    const DeviceCostDb& db) {
  return estimate_resources(module, db, ir::summarize(module));
}

ResourceEstimate estimate_resources(const Module& /*module*/,
                                    const DeviceCostDb& db,
                                    const ir::AnalysisSummary& summary) {
  ResourceEstimate est;
  if (summary.entry_index == ir::kNoFunction) return est;
  est.total = TreeCost(summary, db).total(summary.entry_index);

  // Stream control per port, priced once per distinct (width, range) and
  // summed in port order.
  std::vector<ResourceVec> control(summary.ports.size());
  for (std::size_t i = 0; i < summary.ports.size(); ++i) {
    const ir::PortSummary& ps = summary.ports[i];
    if (ps.control_class == i) {
      control[i] = db.stream_control_cost(ps.port->type.total_bits(),
                                          ps.addr_range_words);
    }
    est.total += control[ps.control_class];
  }

  est.util = utilization(est.total, db.device());
  est.fits = est.util.fits();
  return est;
}

}  // namespace tytra::cost
