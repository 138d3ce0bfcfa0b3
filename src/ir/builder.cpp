#include "tytra/ir/builder.hpp"

#include <algorithm>
#include <stdexcept>

namespace tytra::ir {

FunctionBuilder::FunctionBuilder(std::string name, FuncKind kind) {
  func_.name = std::move(name);
  func_.kind = kind;
}

std::string FunctionBuilder::fresh_name() {
  std::string name = "t";
  name += std::to_string(next_id_++);
  return name;
}

void FunctionBuilder::note_defined(const std::string& name, const Type& type) {
  for (const auto& [defined, _] : defined_) {
    if (defined == name) {
      throw std::invalid_argument("FunctionBuilder: redefinition of %" + name);
    }
  }
  defined_.emplace_back(name, type);
}

std::string FunctionBuilder::param(Type type, std::string name) {
  note_defined(name, type);
  func_.params.push_back({type, name});
  return name;
}

std::string FunctionBuilder::offset(const std::string& base, std::int64_t off,
                                    std::string name) {
  // The defined-value list carries each value's type, so resolving the
  // base is one scan of the (short) name list, not of the whole body.
  const Type* base_type = nullptr;
  for (const auto& [defined, type] : defined_) {
    if (defined == base) base_type = &type;
  }
  if (base_type == nullptr) {
    throw std::invalid_argument("FunctionBuilder: offset of unknown value %" + base);
  }
  const Type type = *base_type;
  if (name.empty()) {
    name = base + (off >= 0 ? "_p" : "_n") + std::to_string(off >= 0 ? off : -off);
  }
  note_defined(name, type);
  OffsetDecl decl;
  decl.type = type;
  decl.result = name;
  decl.base = base;
  decl.offset = off;
  func_.body.emplace_back(std::move(decl));
  return name;
}

std::string FunctionBuilder::instr(Opcode op, Type type,
                                   std::vector<Operand> args, std::string name) {
  const OpInfo& info = op_info(op);
  if (static_cast<int>(args.size()) != info.arity) {
    throw std::invalid_argument(
        "FunctionBuilder: op '" + std::string(info.name) + "' expects " +
        std::to_string(info.arity) + " operands, got " + std::to_string(args.size()));
  }
  if (name.empty()) name = fresh_name();
  note_defined(name, type);
  Instr instr;
  instr.op = op;
  instr.type = type;
  instr.result = name;
  instr.args = std::move(args);
  func_.body.emplace_back(std::move(instr));
  return name;
}

void FunctionBuilder::store(Type type, const std::string& target,
                            Operand value) {
  Instr instr;
  instr.op = Opcode::Mov;
  instr.type = type;
  instr.result = target;
  instr.result_global = true;
  instr.args.push_back(std::move(value));
  func_.body.emplace_back(std::move(instr));
}

void FunctionBuilder::reduce(Opcode op, Type type, const std::string& global,
                             std::vector<Operand> args) {
  args.push_back(Operand::global(global));
  const OpInfo& info = op_info(op);
  if (static_cast<int>(args.size()) != info.arity) {
    throw std::invalid_argument(
        "FunctionBuilder: reduction op '" + std::string(info.name) +
        "' expects " + std::to_string(info.arity) + " operands including the accumulator");
  }
  Instr instr;
  instr.op = op;
  instr.type = type;
  instr.result = global;
  instr.result_global = true;
  instr.args = std::move(args);
  func_.body.emplace_back(std::move(instr));
}

void FunctionBuilder::call(std::string callee, std::vector<Operand> args,
                           FuncKind kind) {
  Call call;
  call.callee = std::move(callee);
  call.args = std::move(args);
  call.kind_annot = kind;
  func_.body.emplace_back(std::move(call));
}

ModuleBuilder::ModuleBuilder(std::string name) { mod_.name = std::move(name); }

ModuleBuilder& ModuleBuilder::set_ndrange(std::uint64_t ngs) {
  mod_.meta.global_size = ngs;
  return *this;
}
ModuleBuilder& ModuleBuilder::set_nki(std::uint32_t nki) {
  mod_.meta.nki = nki;
  return *this;
}
ModuleBuilder& ModuleBuilder::set_form(ExecForm form) {
  mod_.meta.form = form;
  return *this;
}

ModuleBuilder& ModuleBuilder::reserve_ports(std::size_t ports) {
  mod_.memobjs.reserve(mod_.memobjs.size() + ports);
  mod_.streamobjs.reserve(mod_.streamobjs.size() + ports);
  mod_.ports.reserve(mod_.ports.size() + ports);
  return *this;
}

void ModuleBuilder::add_port(const std::string& name, Type type, StreamDir dir,
                             AccessPattern pattern, std::uint64_t stride,
                             std::uint64_t size_words) {
  if (mod_.meta.global_size == 0) {
    throw std::invalid_argument(
        "ModuleBuilder: set_ndrange must precede add_*_port (memory objects "
        "are sized to the NDRange)");
  }
  MemObject& mem = mod_.memobjs.emplace_back();
  mem.name = "m_" + name;
  mem.elem = type.scalar;
  mem.size_words =
      size_words != 0 ? size_words : mod_.meta.global_size * type.lanes;
  mem.space = AddrSpace::Global;

  StreamObject& so = mod_.streamobjs.emplace_back();
  so.name = "strobj_" + name;
  so.memobj = mem.name;
  so.dir = dir;
  so.pattern = pattern;
  so.stride_words = stride;

  PortBinding& port = mod_.ports.emplace_back();
  port.name = name;
  port.space = AddrSpace::Global;
  port.type = type;
  port.dir = dir;
  port.pattern = pattern;
  port.streamobj = so.name;
}

ModuleBuilder& ModuleBuilder::add_input_port(const std::string& name, Type type,
                                             AccessPattern pattern,
                                             std::uint64_t stride,
                                             std::uint64_t size_words) {
  add_port(name, type, StreamDir::In, pattern, stride, size_words);
  return *this;
}

ModuleBuilder& ModuleBuilder::add_output_port(const std::string& name, Type type,
                                              AccessPattern pattern,
                                              std::uint64_t stride,
                                              std::uint64_t size_words) {
  add_port(name, type, StreamDir::Out, pattern, stride, size_words);
  return *this;
}

ModuleBuilder& ModuleBuilder::add(Function function) {
  mod_.functions.push_back(std::move(function));
  return *this;
}

Module ModuleBuilder::take() && { return std::move(mod_); }

}  // namespace tytra::ir
