#pragma once

// The TyTra-IR instruction set: SSA data-path operations executed by a
// processing element. The set follows the LLVM-IR arithmetic core with the
// additions the paper's kernels need (mac for reductions, sqrt/exp for
// LavaMD-style physics, select/min/max for stencil clamping).

#include <cstdint>
#include <optional>
#include <string_view>

#include "tytra/ir/type.hpp"

namespace tytra::ir {

enum class Opcode : std::uint8_t {
  Add, Sub, Mul, Div, Rem,
  Shl, LShr, AShr,
  And, Or, Xor, Not,
  CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe,
  Select,
  Min, Max, Abs, Neg,
  Mac,    ///< multiply-accumulate: r = a*b + c
  Sqrt, Exp, Recip,
  Mov,    ///< register move / pass-through stage
};

/// Number of opcodes (for iteration in tables and tests).
inline constexpr int kNumOpcodes = static_cast<int>(Opcode::Mov) + 1;

/// Static properties of an opcode, shared by the verifier, the fabric
/// synthesizer, the cost model and the scheduler.
struct OpInfo {
  std::string_view name;  ///< textual mnemonic in the IR
  int arity;              ///< number of SSA operands
  bool integer_ok;        ///< defined for integer/fixed operand types
  bool float_ok;          ///< defined for float operand types
  bool commutative;
  bool result_is_bool;    ///< comparisons produce ui1 regardless of operand type
};

/// Returns the static properties of `op`.
const OpInfo& op_info(Opcode op);

/// Looks up an opcode by mnemonic. Accepts LLVM-style float aliases
/// ("fadd" -> Add, "fmul" -> Mul, ...). Returns nullopt if unknown.
std::optional<Opcode> opcode_from_name(std::string_view name);

/// Mnemonic of `op` (canonical, not the float alias).
std::string_view opcode_name(Opcode op);

/// Pipeline latency in clock cycles of the primitive core implementing
/// `op` at the given operand type. This is the *architectural* latency
/// used for scheduling and pipeline-depth (KPD) computation; the fabric
/// module attaches resource costs separately.
int op_latency(Opcode op, const ScalarType& type);

}  // namespace tytra::ir
