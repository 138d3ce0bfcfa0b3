#include "tytra/ir/instr.hpp"

#include <array>
#include <cmath>

namespace tytra::ir {

namespace {

constexpr std::array<OpInfo, kNumOpcodes> kOpTable = {{
    // name    arity int   flt   comm  bool
    {"add",    2,    true, true, true, false},
    {"sub",    2,    true, true, false, false},
    {"mul",    2,    true, true, true, false},
    {"div",    2,    true, true, false, false},
    {"rem",    2,    true, false, false, false},
    {"shl",    2,    true, false, false, false},
    {"lshr",   2,    true, false, false, false},
    {"ashr",   2,    true, false, false, false},
    {"and",    2,    true, false, true, false},
    {"or",     2,    true, false, true, false},
    {"xor",    2,    true, false, true, false},
    {"not",    1,    true, false, false, false},
    {"cmpeq",  2,    true, true, true, true},
    {"cmpne",  2,    true, true, true, true},
    {"cmplt",  2,    true, true, false, true},
    {"cmple",  2,    true, true, false, true},
    {"cmpgt",  2,    true, true, false, true},
    {"cmpge",  2,    true, true, false, true},
    {"select", 3,    true, true, false, false},
    {"min",    2,    true, true, true, false},
    {"max",    2,    true, true, true, false},
    {"abs",    1,    true, true, false, false},
    {"neg",    1,    true, true, false, false},
    {"mac",    3,    true, true, false, false},
    {"sqrt",   1,    true, true, false, false},
    {"exp",    1,    false, true, false, false},
    {"recip",  1,    false, true, false, false},
    {"mov",    1,    true, true, false, false},
}};

}  // namespace

const OpInfo& op_info(Opcode op) { return kOpTable[static_cast<int>(op)]; }

std::string_view opcode_name(Opcode op) { return op_info(op).name; }

std::optional<Opcode> opcode_from_name(std::string_view name) {
  // LLVM-style float aliases map onto the canonical opcode; the operand
  // type distinguishes the hardware realization.
  if (name.size() > 1 && name.front() == 'f' &&
      (name == "fadd" || name == "fsub" || name == "fmul" || name == "fdiv")) {
    name = name.substr(1);
  }
  if (name == "udiv" || name == "sdiv") name = "div";
  if (name == "urem" || name == "srem") name = "rem";
  for (int i = 0; i < kNumOpcodes; ++i) {
    if (kOpTable[i].name == name) return static_cast<Opcode>(i);
  }
  return std::nullopt;
}

int op_latency(Opcode op, const ScalarType& type) {
  const bool flt = type.is_float();
  const int w = type.bits;
  switch (op) {
    case Opcode::Add:
    case Opcode::Sub:
      return flt ? 7 : 1;
    case Opcode::Mul:
      return flt ? 5 : (w <= 18 ? 2 : 3);
    case Opcode::Mac:
      return flt ? 9 : (w <= 18 ? 3 : 4);
    case Opcode::Div:
      // Digit-recurrence divider: roughly one stage per 2 result bits.
      return flt ? 24 : std::max(4, w / 2);
    case Opcode::Rem:
      return std::max(4, w / 2);
    case Opcode::Sqrt:
      return flt ? 18 : std::max(4, w / 2);
    case Opcode::Exp:
      return 16;
    case Opcode::Recip:
      return 12;
    case Opcode::Shl:
    case Opcode::LShr:
    case Opcode::AShr:
      return w > 32 ? 2 : 1;
    case Opcode::And:
    case Opcode::Or:
    case Opcode::Xor:
    case Opcode::Not:
      return 1;
    case Opcode::CmpEq:
    case Opcode::CmpNe:
    case Opcode::CmpLt:
    case Opcode::CmpLe:
    case Opcode::CmpGt:
    case Opcode::CmpGe:
      return flt ? 2 : 1;
    case Opcode::Select:
    case Opcode::Min:
    case Opcode::Max:
    case Opcode::Abs:
    case Opcode::Neg:
      return 1;
    case Opcode::Mov:
      return 1;
  }
  return 1;
}

}  // namespace tytra::ir
