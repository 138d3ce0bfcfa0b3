#pragma once

// Static analyses over TyTra-IR that feed the cost model:
//  * configuration-tree extraction (paper Fig. 8) and classification into
//    the design-space abstraction's configuration classes (Fig. 5);
//  * ASAP scheduling of a function's SSA dataflow graph, giving pipeline
//    stage assignment and the kernel pipeline depth KPD;
//  * extraction of the Table-I parameters that depend on the program and
//    the design variant (NGS, NWPT, NKI, Noff, KPD, NTO, NI, KNL, DV).

#include <cstdint>
#include <string>
#include <vector>

#include "tytra/ir/module.hpp"

namespace tytra::ir {

// ---------------------------------------------------------------------------
// Configuration tree (Fig. 8)
// ---------------------------------------------------------------------------

struct ConfigNode {
  const Function* func{nullptr};
  FuncKind kind{FuncKind::Pipe};
  std::vector<ConfigNode> children;
};

/// Builds the configuration tree rooted at @main. The entry function itself
/// is elided when it merely wraps a single call.
/// Preconditions: module verifies (entry exists, no call cycles).
ConfigNode build_config_tree(const Module& module);

/// Renders the tree as an indented listing (for reports and tests).
std::string format_config_tree(const ConfigNode& root);

/// The design-space configuration classes of Fig. 5.
enum class ConfigClass : std::uint8_t {
  C1,  ///< replicated pipeline lanes (par of pipes)
  C2,  ///< single kernel pipeline
  C3,  ///< vectorized lanes (DV > 1)
  C4,  ///< scalar instruction processor (seq)
  C5,  ///< vector instruction processor (seq with DV > 1)
};

std::string_view config_class_name(ConfigClass c);

/// Classifies the module's architecture.
ConfigClass classify_config(const Module& module);

// ---------------------------------------------------------------------------
// Pipeline scheduling
// ---------------------------------------------------------------------------

/// Stage assignment of one function's dataflow graph. Stages are in cycles:
/// a value produced by an instruction whose operands are ready at cycle s
/// with latency L becomes available at s + L.
struct FunctionSchedule {
  /// Issue cycle per instruction (parallel to Function::instructions()).
  std::vector<int> issue_at;
  /// Availability cycle per instruction argument: the arguments of every
  /// instruction in body order, each instruction's in operand order (so
  /// instruction i's start at the sum of the earlier argument counts). A
  /// local operand reads its name's last definition in the function
  /// (params and offsets are ready at 0; an undefined name reads 0); other
  /// operands read 0. This is the readiness the delay-balancing registers
  /// are sized from.
  std::vector<int> arg_ready;
  /// Total pipeline depth in cycles of this function (critical path).
  int depth{0};
};

/// ASAP-schedules `function` within `module` (calls to pipe children add
/// the child's depth sequentially — a coarse-grained pipeline; comb calls
/// add a single stage; par children take the max).
/// Preconditions: module verifies.
FunctionSchedule schedule_function(const Module& module, const Function& function);

/// Pipeline depth (KPD) of the whole design: the depth of the processing
/// element reached from @main.
int pipeline_depth(const Module& module);

// ---------------------------------------------------------------------------
// Table-I parameter extraction
// ---------------------------------------------------------------------------

/// The program/design-variant-dependent parameters of the EKIT expressions
/// (paper Table I), as evaluated by "Parsing IR".
struct DesignParams {
  std::uint64_t ngs{0};   ///< NGS: global size of work-items in the NDRange
  double nwpt{0};         ///< NWPT: words per tuple per work-item
  std::uint32_t nki{1};   ///< NKI: kernel-instance repetitions
  std::uint64_t noff{0};  ///< Noff: maximum offset in a stream (words)
  int kpd{0};             ///< KPD: pipeline depth of kernel (cycles)
  double fd{0};           ///< FD: operating frequency (Hz); 0 = target default
  double nto{1};          ///< NTO: cycles per instruction (II for pipes)
  double ni{1};           ///< NI: instructions per PE
  std::uint32_t knl{1};   ///< KNL: parallel kernel lanes
  std::uint32_t dv{1};    ///< DV: degree of vectorization per lane
  ExecForm form{ExecForm::B};
};

/// Extracts all design parameters from the IR.
/// Preconditions: module verifies.
DesignParams extract_params(const Module& module);

/// Total instruction count reachable from @main, weighted per PE (lane):
/// instructions inside a par's children count once per distinct child body.
double instructions_per_pe(const Module& module);

/// Number of parallel kernel lanes (pipe-typed children of the top par, or
/// 1 when the design is a single pipeline).
std::uint32_t lane_count(const Module& module);

// ---------------------------------------------------------------------------
// One-traversal analysis summary
// ---------------------------------------------------------------------------

/// Marks an unresolved function index (a call to an undefined callee, or
/// a module without @main).
inline constexpr std::size_t kNoFunction = ~std::size_t{0};

/// Everything the cost pipeline needs about one function, computed once:
/// the body partition (instructions / offsets / calls) with every callee
/// resolved to its index, the ASAP schedule (with child depths memoized
/// instead of re-derived per call site), and the aggregate counts the
/// Table-I extraction reads.
struct FunctionSummary {
  const Function* func{nullptr};
  FunctionSchedule schedule;
  std::vector<const Instr*> instrs;
  std::vector<const OffsetDecl*> offsets;
  std::vector<const Call*> calls;
  /// Index into AnalysisSummary::functions of each call's callee (parallel
  /// to `calls`; first definition wins, like Module::find_function), or
  /// kNoFunction when the callee is undefined.
  std::vector<std::size_t> callees;
  /// Instructions reachable through this function's call tree, counting
  /// once per call site (replicated lanes count per lane).
  double instr_count_reachable{0};
  /// Sum of op latencies over this function's own instructions.
  double latency_sum{0};
};

/// A port with its Manage-IR links resolved: the stream object's stride
/// and the backing memory object's address range, looked up once instead
/// of per cost-model stage.
struct PortSummary {
  const PortBinding* port{nullptr};
  std::uint64_t stride_words{1};
  /// Backing memory-object size in words; the NDRange size when the port
  /// has no resolvable memory object.
  std::uint64_t addr_range_words{0};
  /// Index of the first port with this port's (width, addr_range_words):
  /// its stream-control cost is the same, so the resource model prices
  /// it once per design.
  std::size_t control_class{0};
  /// Index of the first port with this port's (pattern, stride_words): its
  /// sustained DRAM bandwidth is the same at any transfer size.
  std::size_t bandwidth_class{0};
};

/// The single-traversal analysis bundle: everything `classify_config`,
/// `extract_params`, the resource model, the throughput model and the
/// timing simulator would otherwise each re-derive from the module.
/// Summaries hold pointers into the module they were built from — the
/// module must outlive the summary and stay unmodified.
struct AnalysisSummary {
  const Module* module{nullptr};
  ConfigNode tree;
  ConfigClass config{ConfigClass::C2};
  DesignParams params;
  std::vector<FunctionSummary> functions;  ///< parallel to module->functions
  std::vector<PortSummary> ports;          ///< parallel to module->ports
  std::size_t offset_count{0};             ///< offset decls over all functions
  std::size_t entry_index{kNoFunction};    ///< index of @main in `functions`

  /// Summary of the entry function @main; nullptr when absent.
  [[nodiscard]] const FunctionSummary* entry() const {
    return entry_index == kNoFunction ? nullptr : &functions[entry_index];
  }
};

/// Computes the full analysis summary in one pass over the module: each
/// function's body is partitioned and scheduled exactly once (child
/// pipeline depths are memoized), every name — callee, operand, stream and
/// memory object — is resolved to an index once, the configuration tree is
/// built once, and every port's stream/memory lookup is resolved once. No
/// later stage of the cost model looks a name up. Each schedule is
/// bit-identical to schedule_function's; the other standalone functions
/// above are thin wrappers over this.
/// Preconditions: module verifies.
AnalysisSummary summarize(const Module& module);

}  // namespace tytra::ir
