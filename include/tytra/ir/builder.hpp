#pragma once

// Programmatic construction of TyTra-IR modules. This is the API the
// kernel library and the front-end lowering use; it produces exactly the
// same `Module` structures as the textual parser.
//
// Usage:
//   ModuleBuilder mb("sor");
//   mb.set_ndrange(im*jm*km).set_nki(1000).set_form(ExecForm::B);
//   mb.add_input_port("p", Type::scalar_of(ScalarType::uint(18)));
//   FunctionBuilder f0("f0", FuncKind::Pipe);
//   auto p   = f0.param(ui18, "p");
//   auto pp1 = f0.offset(p, +1);
//   auto t   = f0.instr(Opcode::Mul, ui18, {Operand::local(pp1), cn2l});
//   ...
//   mb.add(std::move(f0).take());
//   Module m = std::move(mb).take();

#include <string>
#include <vector>

#include "tytra/ir/module.hpp"

namespace tytra::ir {

/// Builds one IR function. Values are referred to by name; helper methods
/// auto-generate unique names when none is given.
class FunctionBuilder {
 public:
  FunctionBuilder(std::string name, FuncKind kind);

  /// Adds a parameter and returns its name.
  std::string param(Type type, std::string name);

  /// Declares a stream offset of `base`; returns the new value's name.
  /// Throws std::invalid_argument if `base` is not a known value.
  std::string offset(const std::string& base, std::int64_t off,
                     std::string name = {});

  /// Appends an SSA instruction; returns the result name.
  /// Throws std::invalid_argument on arity mismatch.
  std::string instr(Opcode op, Type type, std::vector<Operand> args,
                    std::string name = {});

  /// Streams `value` out through `target`: a global write to an output
  /// port name or to a parameter bound to one (emitted as a mov).
  void store(Type type, const std::string& target, Operand value);

  /// Appends a reduction onto global accumulator `global`:
  ///   @global = op(type, args..., @global)   -- accumulator appended last.
  void reduce(Opcode op, Type type, const std::string& global,
              std::vector<Operand> args);

  /// Appends a call.
  void call(std::string callee, std::vector<Operand> args, FuncKind kind);

  [[nodiscard]] const Function& peek() const { return func_; }
  [[nodiscard]] Function take() && { return std::move(func_); }

 private:
  std::string fresh_name();
  void note_defined(const std::string& name, const Type& type);

  Function func_;
  /// Defined value names with their types, so offset() resolves a base's
  /// type in one lookup instead of rescanning the whole body per call.
  std::vector<std::pair<std::string, Type>> defined_;
  int next_id_{1};
};

/// Builds a module: metadata, Manage-IR and functions.
class ModuleBuilder {
 public:
  explicit ModuleBuilder(std::string name);

  ModuleBuilder& set_ndrange(std::uint64_t ngs);
  ModuleBuilder& set_nki(std::uint32_t nki);
  ModuleBuilder& set_form(ExecForm form);

  /// Pre-sizes the Manage-IR vectors for `ports` upcoming add_*_port
  /// calls (each adds one memobj, one streamobj and one binding) — lane
  /// sweeps add ports in bulk and would otherwise regrow three vectors.
  ModuleBuilder& reserve_ports(std::size_t ports);

  /// Adds a full port with backing Manage-IR objects: a MemObject named
  /// "m_<name>" sized to the NDRange (call set_ndrange first; throws
  /// std::invalid_argument otherwise), a StreamObject "strobj_<name>" and
  /// the PortBinding itself. `size_words` overrides the memory-object size
  /// (0 = NDRange size); replicated lanes stream NGS/KNL words each.
  ModuleBuilder& add_input_port(const std::string& name, Type type,
                                AccessPattern pattern = AccessPattern::Contiguous,
                                std::uint64_t stride = 1,
                                std::uint64_t size_words = 0);
  ModuleBuilder& add_output_port(const std::string& name, Type type,
                                 AccessPattern pattern = AccessPattern::Contiguous,
                                 std::uint64_t stride = 1,
                                 std::uint64_t size_words = 0);

  /// Adds a finished function.
  ModuleBuilder& add(Function function);

  [[nodiscard]] Module take() &&;

 private:
  void add_port(const std::string& name, Type type, StreamDir dir,
                AccessPattern pattern, std::uint64_t stride,
                std::uint64_t size_words);

  Module mod_;
};

}  // namespace tytra::ir
