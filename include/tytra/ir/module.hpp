#pragma once

// In-memory representation of a TyTra-IR module (paper §IV).
//
// A module has two components:
//  * the Manage-IR — memory objects (sources/sinks of streams; the
//    equivalent of arrays in main memory) and stream objects connecting a
//    streaming port of a processing element to a memory object, plus the
//    module-level execution metadata (NDRange global size, number of
//    kernel-instance repetitions, memory-execution form A/B/C);
//  * the Compute-IR — a hierarchy of functions with a parallelism keyword
//    each (`pipe`, `par`, `seq`, `comb`) whose bodies are SSA data-path
//    instructions, stream-offset declarations and calls.

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "tytra/ir/instr.hpp"
#include "tytra/ir/type.hpp"
#include "tytra/support/diag.hpp"

namespace tytra::ir {

// ---------------------------------------------------------------------------
// Manage-IR
// ---------------------------------------------------------------------------

/// OpenCL-style memory hierarchy levels (paper Fig. 4). The numeric values
/// are the address-space numbers used in the textual IR.
enum class AddrSpace : std::uint8_t {
  Private = 0,   ///< registers inside the PE
  Global = 1,    ///< device DRAM
  Local = 2,     ///< on-chip block RAM
  Constant = 3,  ///< constant memory (DRAM, read-only, cached on chip)
};

std::string_view addr_space_name(AddrSpace space);

/// Stream direction relative to the processing element.
enum class StreamDir : std::uint8_t { In, Out };

/// Streaming data-pattern model (paper §III-6): the index-access pattern of
/// a stream, which the empirical bandwidth model costs differently.
enum class AccessPattern : std::uint8_t { Contiguous, Strided };

/// Memory-execution model (paper §III-5, Fig. 6).
enum class ExecForm : std::uint8_t {
  A,  ///< every kernel-instance moves all NDRange data host<->device DRAM
  B,  ///< data moved to device DRAM once; iterations stream from DRAM
  C,  ///< NDRange data fits in on-chip local memory for all iterations
};

std::string_view exec_form_name(ExecForm form);

/// An array-like entity that can source or sink a stream.
struct MemObject {
  std::string name;          ///< e.g. "m_p"
  ScalarType elem;           ///< element type
  std::uint64_t size_words{0};
  AddrSpace space{AddrSpace::Global};
  tytra::SourceLoc loc;
};

/// Connects a PE streaming port to a memory object with a given pattern.
struct StreamObject {
  std::string name;          ///< e.g. "strobj_p"
  std::string memobj;        ///< name of the backing MemObject
  StreamDir dir{StreamDir::In};
  AccessPattern pattern{AccessPattern::Contiguous};
  std::uint64_t stride_words{1};  ///< stride for AccessPattern::Strided
  tytra::SourceLoc loc;
};

/// A top-level streaming port of the kernel, bound to a stream object.
/// Textual form (paper Fig. 12):
///   @main.p = addrSpace(1) ui18, !"istream", !"CONT", !0, !"strobj_p"
struct PortBinding {
  std::string name;          ///< port name without the "@main." prefix
  AddrSpace space{AddrSpace::Global};
  Type type;
  StreamDir dir{StreamDir::In};
  AccessPattern pattern{AccessPattern::Contiguous};
  std::int64_t init_offset{0};
  std::string streamobj;     ///< may be empty when no Manage-IR is given
  tytra::SourceLoc loc;
};

// ---------------------------------------------------------------------------
// Compute-IR
// ---------------------------------------------------------------------------

/// An operand of an instruction or call.
struct Operand {
  enum class Kind : std::uint8_t { Local, Global, ConstInt, ConstFloat };

  Kind kind{Kind::Local};
  std::string name;        ///< for Local (%x) / Global (@x)
  std::int64_t ival{0};    ///< for ConstInt
  double fval{0.0};        ///< for ConstFloat

  static Operand local(std::string n) { return {Kind::Local, std::move(n), 0, 0.0}; }
  static Operand global(std::string n) { return {Kind::Global, std::move(n), 0, 0.0}; }
  static Operand const_int(std::int64_t v) { return {Kind::ConstInt, {}, v, 0.0}; }
  static Operand const_float(double v) { return {Kind::ConstFloat, {}, 0, v}; }

  [[nodiscard]] bool is_value() const {
    return kind == Kind::Local || kind == Kind::Global;
  }
  [[nodiscard]] bool is_const() const { return !is_value(); }
  friend bool operator==(const Operand&, const Operand&) = default;
};

/// An SSA data-path instruction:  ui18 %1 = mul ui18 %a, %b
/// When `result_global` is true the result names a global accumulator and
/// the instruction is a reduction (paper Fig. 12 line 15).
struct Instr {
  Opcode op{Opcode::Add};
  Type type;
  std::string result;
  bool result_global{false};
  std::vector<Operand> args;
  tytra::SourceLoc loc;
};

/// A stream-offset declaration creating a shifted view of a stream
/// (paper Fig. 12 lines 6-9):  ui18 %pip1 = ui18 %p, !offset, !+1
struct OffsetDecl {
  Type type;
  std::string result;
  std::string base;       ///< the stream/parameter being offset
  std::int64_t offset{0};
  tytra::SourceLoc loc;
};

/// Parallelism keyword of a function (paper §IV): the pattern applied to
/// the computations it contains.
enum class FuncKind : std::uint8_t {
  Pipe,  ///< pipeline parallelism over work-items
  Par,   ///< thread parallelism: children execute concurrently
  Seq,   ///< sequential execution (one op at a time)
  Comb,  ///< single-cycle custom combinatorial block
};

std::string_view func_kind_name(FuncKind kind);
std::optional<FuncKind> func_kind_from_name(std::string_view name);

/// A call to another IR function, annotated with the callee's kind.
struct Call {
  std::string callee;
  std::vector<Operand> args;
  FuncKind kind_annot{FuncKind::Pipe};
  tytra::SourceLoc loc;
};

using BodyItem = std::variant<Instr, OffsetDecl, Call>;

struct Param {
  Type type;
  std::string name;
};

/// An IR function: the equivalent of an HDL module, but described at a
/// higher abstraction with an explicit parallelism keyword.
struct Function {
  std::string name;
  FuncKind kind{FuncKind::Pipe};
  std::vector<Param> params;
  std::vector<BodyItem> body;
  tytra::SourceLoc loc;

  [[nodiscard]] std::vector<const Instr*> instructions() const;
  [[nodiscard]] std::vector<const OffsetDecl*> offsets() const;
  [[nodiscard]] std::vector<const Call*> calls() const;
};

// ---------------------------------------------------------------------------
// Module
// ---------------------------------------------------------------------------

/// Module-level execution metadata (populated from `!key = value` lines).
struct ModuleMeta {
  std::uint64_t global_size{0};   ///< NGS: work-items in the NDRange
  std::uint32_t nki{1};           ///< kernel-instance repetitions
  ExecForm form{ExecForm::B};
  double freq_hz{0.0};            ///< FD; 0 = use the target device default
  std::uint32_t ii{1};            ///< initiation interval (cycles per streamed word)
};

struct Module {
  std::string name{"module"};
  ModuleMeta meta;
  std::vector<MemObject> memobjs;
  std::vector<StreamObject> streamobjs;
  std::vector<PortBinding> ports;
  std::vector<Function> functions;

  [[nodiscard]] const Function* find_function(std::string_view name) const;
  [[nodiscard]] Function* find_function(std::string_view name);
  [[nodiscard]] const MemObject* find_memobj(std::string_view name) const;
  [[nodiscard]] const StreamObject* find_streamobj(std::string_view name) const;
  [[nodiscard]] const PortBinding* find_port(std::string_view name) const;

  /// The entry function `@main`; nullptr when absent (verifier rejects).
  [[nodiscard]] const Function* entry() const { return find_function("main"); }
};

}  // namespace tytra::ir
