#include "tytra/ir/module.hpp"

namespace tytra::ir {

std::string_view addr_space_name(AddrSpace space) {
  switch (space) {
    case AddrSpace::Private: return "private";
    case AddrSpace::Global: return "global";
    case AddrSpace::Local: return "local";
    case AddrSpace::Constant: return "constant";
  }
  return "?";
}

std::string_view exec_form_name(ExecForm form) {
  switch (form) {
    case ExecForm::A: return "A";
    case ExecForm::B: return "B";
    case ExecForm::C: return "C";
  }
  return "?";
}

std::string_view func_kind_name(FuncKind kind) {
  switch (kind) {
    case FuncKind::Pipe: return "pipe";
    case FuncKind::Par: return "par";
    case FuncKind::Seq: return "seq";
    case FuncKind::Comb: return "comb";
  }
  return "?";
}

std::optional<FuncKind> func_kind_from_name(std::string_view name) {
  if (name == "pipe") return FuncKind::Pipe;
  if (name == "par") return FuncKind::Par;
  if (name == "seq") return FuncKind::Seq;
  if (name == "comb") return FuncKind::Comb;
  return std::nullopt;
}

std::vector<const Instr*> Function::instructions() const {
  std::vector<const Instr*> out;
  for (const auto& item : body) {
    if (const auto* instr = std::get_if<Instr>(&item)) out.push_back(instr);
  }
  return out;
}

std::vector<const OffsetDecl*> Function::offsets() const {
  std::vector<const OffsetDecl*> out;
  for (const auto& item : body) {
    if (const auto* off = std::get_if<OffsetDecl>(&item)) out.push_back(off);
  }
  return out;
}

std::vector<const Call*> Function::calls() const {
  std::vector<const Call*> out;
  for (const auto& item : body) {
    if (const auto* call = std::get_if<Call>(&item)) out.push_back(call);
  }
  return out;
}

const Function* Module::find_function(std::string_view name) const {
  for (const auto& f : functions) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

Function* Module::find_function(std::string_view name) {
  for (auto& f : functions) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

const MemObject* Module::find_memobj(std::string_view name) const {
  for (const auto& m : memobjs) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

const StreamObject* Module::find_streamobj(std::string_view name) const {
  for (const auto& s : streamobjs) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const PortBinding* Module::find_port(std::string_view name) const {
  for (const auto& p : ports) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

}  // namespace tytra::ir
