#include "tytra/codegen/verilog.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <set>
#include <sstream>

#include "tytra/ir/analysis.hpp"

namespace tytra::codegen {

namespace {

using ir::FuncKind;
using ir::Function;
using ir::Instr;
using ir::Module;
using ir::Opcode;
using ir::Operand;

std::string width_range(std::uint32_t bits) {
  std::string r = "[";
  r += std::to_string(bits - 1);
  r += ":0]";
  return r;
}

/// The Verilog expression implementing an opcode on operands a/b/c.
std::string op_expr(Opcode op, bool is_signed) {
  const char* a = is_signed ? "$signed(a)" : "a";
  const char* b = is_signed ? "$signed(b)" : "b";
  switch (op) {
    case Opcode::Add: return std::string(a) + " + " + b;
    case Opcode::Sub: return std::string(a) + " - " + b;
    case Opcode::Mul: return std::string(a) + " * " + b;
    case Opcode::Div: return std::string(b) + " != 0 ? " + a + " / " + b + " : 0";
    case Opcode::Rem: return std::string(b) + " != 0 ? " + a + " % " + b + " : 0";
    case Opcode::Shl: return "a << b";
    case Opcode::LShr: return "a >> b";
    case Opcode::AShr: return "$signed(a) >>> b";
    case Opcode::And: return "a & b";
    case Opcode::Or: return "a | b";
    case Opcode::Xor: return "a ^ b";
    case Opcode::Not: return "~a";
    case Opcode::CmpEq: return std::string(a) + " == " + b;
    case Opcode::CmpNe: return std::string(a) + " != " + b;
    case Opcode::CmpLt: return std::string(a) + " < " + b;
    case Opcode::CmpLe: return std::string(a) + " <= " + b;
    case Opcode::CmpGt: return std::string(a) + " > " + b;
    case Opcode::CmpGe: return std::string(a) + " >= " + b;
    case Opcode::Select: return "a != 0 ? b : c";
    case Opcode::Min:
      return std::string(a) + " < " + b + " ? a : b";
    case Opcode::Max:
      return std::string(a) + " > " + b + " ? a : b";
    case Opcode::Abs:
      return is_signed ? "$signed(a) < 0 ? -$signed(a) : a" : "a";
    case Opcode::Neg: {
      std::string r = "-";
      r += a;
      return r;
    }
    case Opcode::Mac: return std::string(a) + " * " + b + " + c";
    case Opcode::Sqrt: return "a";  // placeholder core; black-box in synthesis
    case Opcode::Exp: return "a";
    case Opcode::Recip: return "a";
    case Opcode::Mov: return "a";
  }
  return "a";
}

class Emitter {
 public:
  explicit Emitter(const Module& mod) : mod_(mod) {}

  VerilogDesign run() {
    VerilogDesign design;
    const Function* main = mod_.entry();
    if (main == nullptr) return design;

    header();
    // Collect the opcodes used anywhere so we emit each primitive once.
    for (const auto& f : mod_.functions) {
      for (const auto* instr : f.instructions()) {
        used_ops_.insert({instr->op, instr->type.scalar.kind ==
                                         ir::ScalarKind::SInt});
      }
    }
    emit_primitives();
    emit_delay_line();
    emit_offset_buffer();
    emit_stream_control();
    for (const auto& f : mod_.functions) {
      if (f.name == "main") continue;
      if (f.kind == FuncKind::Par) continue;  // realized structurally in top
      emit_pe(f);
    }
    emit_top(*main);

    design.top_module = sanitize_identifier(mod_.name) + "_top";
    design.source = os_.str();
    design.pipeline_depth = ir::pipeline_depth(mod_);
    design.primitive_count = primitive_instances_;
    return design;
  }

 private:
  void header() {
    os_ << "// Generated by TyBEC (TyTra back-end compiler)\n";
    os_ << "// module: " << mod_.name << "\n";
    os_ << "// pipeline depth (KPD): " << ir::pipeline_depth(mod_) << "\n";
    os_ << "`timescale 1ns/1ps\n\n";
  }

  void emit_primitives() {
    for (const auto& [op, is_signed] : used_ops_) {
      const std::string name = primitive_name(op, is_signed);
      const int arity = ir::op_info(op).arity;
      os_ << "module " << name << " #(parameter WIDTH = 32, parameter LATENCY = 1) (\n";
      os_ << "  input  wire clk,\n";
      os_ << "  input  wire [WIDTH-1:0] a";
      if (arity >= 2) os_ << ",\n  input  wire [WIDTH-1:0] b";
      if (arity >= 3) os_ << ",\n  input  wire [WIDTH-1:0] c";
      os_ << ",\n  output wire [WIDTH-1:0] q\n);\n";
      os_ << "  wire [WIDTH-1:0] result = " << op_expr(op, is_signed) << ";\n";
      os_ << "  reg [WIDTH-1:0] pipe [0:LATENCY-1];\n";
      os_ << "  integer i;\n";
      os_ << "  always @(posedge clk) begin\n";
      os_ << "    pipe[0] <= result;\n";
      os_ << "    for (i = 1; i < LATENCY; i = i + 1) pipe[i] <= pipe[i-1];\n";
      os_ << "  end\n";
      os_ << "  assign q = pipe[LATENCY-1];\n";
      os_ << "endmodule\n\n";
    }
  }

  void emit_delay_line() {
    os_ << "module tytra_delay #(parameter WIDTH = 32, parameter DEPTH = 1) (\n"
        << "  input  wire clk,\n"
        << "  input  wire [WIDTH-1:0] d,\n"
        << "  output wire [WIDTH-1:0] q\n"
        << ");\n"
        << "  reg [WIDTH-1:0] sr [0:DEPTH-1];\n"
        << "  integer i;\n"
        << "  always @(posedge clk) begin\n"
        << "    sr[0] <= d;\n"
        << "    for (i = 1; i < DEPTH; i = i + 1) sr[i] <= sr[i-1];\n"
        << "  end\n"
        << "  assign q = sr[DEPTH-1];\n"
        << "endmodule\n\n";
  }

  void emit_offset_buffer() {
    os_ << "// Stream-offset window buffer: delays the base stream by DEPTH\n"
        << "// words (register fabric when shallow, inferred BRAM when deep).\n"
        << "module tytra_offset_buffer #(parameter WIDTH = 32, parameter DEPTH = 1) (\n"
        << "  input  wire clk,\n"
        << "  input  wire en,\n"
        << "  input  wire [WIDTH-1:0] d,\n"
        << "  output reg  [WIDTH-1:0] q\n"
        << ");\n"
        << "  reg [WIDTH-1:0] mem [0:DEPTH-1];\n"
        << "  reg [31:0] wptr;\n"
        << "  always @(posedge clk) begin\n"
        << "    if (en) begin\n"
        << "      mem[wptr % DEPTH] <= d;\n"
        << "      q <= mem[(wptr + 1) % DEPTH];\n"
        << "      wptr <= wptr + 1;\n"
        << "    end\n"
        << "  end\n"
        << "endmodule\n\n";
  }

  void emit_stream_control() {
    os_ << "// Stream control: translates random memory access into the pure\n"
        << "// streaming domain (address counter + handshake).\n"
        << "module tytra_stream_control #(parameter WIDTH = 32, parameter ADDR_BITS = 32) (\n"
        << "  input  wire clk,\n"
        << "  input  wire rst,\n"
        << "  input  wire start,\n"
        << "  input  wire [ADDR_BITS-1:0] base,\n"
        << "  input  wire [ADDR_BITS-1:0] count,\n"
        << "  input  wire [ADDR_BITS-1:0] stride,\n"
        << "  output reg  [ADDR_BITS-1:0] addr,\n"
        << "  output reg  active\n"
        << ");\n"
        << "  reg [ADDR_BITS-1:0] issued;\n"
        << "  always @(posedge clk) begin\n"
        << "    if (rst) begin\n"
        << "      active <= 1'b0;\n"
        << "      issued <= 0;\n"
        << "      addr <= 0;\n"
        << "    end else if (start && !active) begin\n"
        << "      active <= 1'b1;\n"
        << "      issued <= 0;\n"
        << "      addr <= base;\n"
        << "    end else if (active) begin\n"
        << "      addr <= addr + stride;\n"
        << "      issued <= issued + 1;\n"
        << "      if (issued + 1 == count) active <= 1'b0;\n"
        << "    end\n"
        << "  end\n"
        << "endmodule\n\n";
  }

  static std::string primitive_name(Opcode op, bool is_signed) {
    return "tytra_" + std::string(ir::opcode_name(op)) +
           (is_signed ? "_s" : "");
  }

  /// Emits one processing element (pipe/seq/comb function).
  void emit_pe(const Function& f) {
    const ir::FunctionSchedule sched = ir::schedule_function(mod_, f);

    // Output parameters: written through a global store.
    std::set<std::string> out_params;
    std::set<std::string> reductions;
    for (const auto* instr : f.instructions()) {
      if (!instr->result_global) continue;
      bool is_param = false;
      for (const auto& p : f.params) {
        if (p.name == instr->result) is_param = true;
      }
      if (is_param) out_params.insert(instr->result);
      else if (const auto* port = mod_.find_port(instr->result);
               port != nullptr && port->dir == ir::StreamDir::Out) {
        out_params.insert(instr->result);
      } else {
        reductions.insert(instr->result);
      }
    }

    os_ << "module " << sanitize_identifier(f.name) << " (\n";
    os_ << "  input  wire clk,\n  input  wire rst,\n  input  wire valid_in";
    for (const auto& p : f.params) {
      const std::string id = sanitize_identifier(p.name);
      if (out_params.contains(p.name)) {
        os_ << ",\n  output wire " << width_range(p.type.total_bits()) << " "
            << id;
      } else {
        os_ << ",\n  input  wire " << width_range(p.type.total_bits()) << " "
            << id;
      }
    }
    for (const auto& r : reductions) {
      // Width taken from the producing instruction.
      std::uint32_t bits = 32;
      for (const auto* instr : f.instructions()) {
        if (instr->result == r) bits = instr->type.total_bits();
      }
      os_ << ",\n  output reg " << width_range(bits) << " red_"
          << sanitize_identifier(r);
    }
    os_ << ",\n  output wire valid_out\n);\n\n";

    const int depth = std::max(1, sched.depth);
    os_ << "  // control delay line (valid chain), KPD = " << depth << "\n";
    os_ << "  reg [" << depth << ":0] valid_sr;\n";
    os_ << "  always @(posedge clk) begin\n";
    os_ << "    if (rst) valid_sr <= 0;\n";
    os_ << "    else valid_sr <= {valid_sr[" << (depth - 1)
        << ":0], valid_in};\n";
    os_ << "  end\n";
    os_ << "  assign valid_out = valid_sr[" << depth << "];\n\n";

    // Offset buffers.
    for (const auto* off : f.offsets()) {
      const std::string id = sanitize_identifier(off->result);
      const std::string base = sanitize_identifier(off->base);
      os_ << "  wire " << width_range(off->type.total_bits()) << " " << id
          << ";\n";
      const std::int64_t depth_words = std::max<std::int64_t>(
          1, std::llabs(off->offset));
      os_ << "  tytra_offset_buffer #(.WIDTH(" << off->type.total_bits()
          << "), .DEPTH(" << depth_words << ")) u_off_" << id
          << " (.clk(clk), .en(valid_in), .d(" << base << "), .q(" << id
          << "));\n";
    }
    os_ << "\n";

    // Instructions in schedule order, with operand alignment delays.
    std::size_t instr_idx = 0;
    const int* arg_ready = sched.arg_ready.data();
    for (const auto& item : f.body) {
      const auto* instr = std::get_if<Instr>(&item);
      if (instr == nullptr) continue;
      const int issue = sched.issue_at[instr_idx++];
      emit_instr(sched, *instr, issue, arg_ready, out_params);
      arg_ready += instr->args.size();
    }

    // Coarse-grained pipeline: chain child pipe/seq stages, threading the
    // valid signal from stage to stage (Fig. 7, configuration 3).
    int stage = 0;
    std::string prev_valid = "valid_sr[" + std::to_string(depth) + "]";
    if (f.instructions().empty() && f.offsets().empty()) {
      prev_valid = "valid_in";
    }
    for (const auto* call : f.calls()) {
      const Function* callee = mod_.find_function(call->callee);
      if (callee == nullptr || callee->kind == FuncKind::Comb) continue;
      const std::string vname = "stage" + std::to_string(stage) + "_valid";
      os_ << "  // coarse pipeline stage " << stage << ": " << callee->name
          << "\n";
      os_ << "  wire " << vname << ";\n";
      os_ << "  " << sanitize_identifier(callee->name) << " u_stage" << stage
          << " (.clk(clk), .rst(rst), .valid_in(" << prev_valid << ")";
      for (std::size_t j = 0;
           j < call->args.size() && j < callee->params.size(); ++j) {
        const auto& a = call->args[j];
        std::string actual = "0";
        if (a.kind == Operand::Kind::Global || a.kind == Operand::Kind::Local) {
          actual = sanitize_identifier(a.name);
        }
        os_ << ", ." << sanitize_identifier(callee->params[j].name) << "("
            << actual << ")";
      }
      os_ << ", .valid_out(" << vname << "));\n\n";
      prev_valid = vname;
      ++stage;
    }
    if (stage > 0) {
      // Re-drive valid_out from the end of the stage chain.
      os_ << "  // valid_out follows the final coarse stage\n";
      os_ << "  wire valid_chain_end = " << prev_valid << ";\n";
    }

    os_ << "endmodule\n\n";
  }

  /// Wire name of an operand aligned to the consumer's issue stage.
  /// `ready` is the operand's availability cycle from the schedule.
  std::string aligned_operand(const Operand& a, int ready, int issue,
                              std::uint32_t bits) {
    switch (a.kind) {
      case Operand::Kind::ConstInt:
        return std::to_string(bits) + "'d" +
               std::to_string(a.ival < 0 ? -a.ival : a.ival);
      case Operand::Kind::ConstFloat:
        return std::to_string(bits) + "'d0 /* float const " +
               std::to_string(a.fval) + " */";
      case Operand::Kind::Global:
        return "red_" + sanitize_identifier(a.name);
      case Operand::Kind::Local: {
        const std::string id = sanitize_identifier(a.name);
        const int lag = issue - ready;
        if (lag <= 0) return id;
        // Deduplicated delay taps.
        const std::string key = id + "#" + std::to_string(lag);
        const auto [dit, inserted] = delay_taps_.insert(key);
        (void)dit;
        const std::string tap = id + "_dly" + std::to_string(lag);
        if (inserted) {
          os_ << "  wire " << width_range(bits) << " " << tap << ";\n";
          os_ << "  tytra_delay #(.WIDTH(" << bits << "), .DEPTH(" << lag
              << ")) u_dly_" << tap << " (.clk(clk), .d(" << id << "), .q("
              << tap << "));\n";
        }
        return tap;
      }
    }
    return "0";
  }

  /// `arg_ready` points at this instruction's first entry in the
  /// schedule's per-argument readiness.
  void emit_instr(const ir::FunctionSchedule& sched, const Instr& instr,
                  int issue, const int* arg_ready,
                  const std::set<std::string>& out_params) {
    const std::uint32_t bits = instr.type.total_bits();
    const bool is_signed = instr.type.scalar.kind == ir::ScalarKind::SInt;
    const int latency = ir::op_latency(instr.op, instr.type.scalar);
    const std::string result_id = sanitize_identifier(instr.result);

    std::vector<std::string> args;
    for (std::size_t i = 0; i < instr.args.size(); ++i) {
      args.push_back(aligned_operand(instr.args[i], arg_ready[i], issue, bits));
    }

    if (instr.result_global) {
      const bool streams_out = out_params.contains(instr.result);
      if (streams_out) {
        // Stream write: drive the output port (aligned by construction).
        os_ << "  // stage " << issue << ": stream out @" << instr.result
            << "\n";
        os_ << "  assign " << result_id << " = " << args[0] << ";\n\n";
      } else {
        // Reduction: accumulate when the producing stage is valid.
        os_ << "  // reduction @" << instr.result << "\n";
        os_ << "  always @(posedge clk) begin\n";
        os_ << "    if (rst) red_" << result_id << " <= 0;\n";
        os_ << "    else if (valid_sr[" << std::min(issue, sched.depth)
            << "]) red_" << result_id << " <= "
            << (instr.op == Opcode::Add ? ("red_" + result_id + " + " + args[0])
                                        : args[0])
            << ";\n";
        os_ << "  end\n\n";
      }
      return;
    }

    os_ << "  // stage " << issue << " (+%" << latency << " cycles): %"
        << instr.result << " = " << ir::opcode_name(instr.op) << "\n";
    os_ << "  wire " << width_range(bits) << " " << result_id << ";\n";
    os_ << "  " << primitive_name(instr.op, is_signed) << " #(.WIDTH(" << bits
        << "), .LATENCY(" << latency << ")) u_" << result_id
        << " (.clk(clk), .a(" << args[0] << ")";
    if (args.size() >= 2) os_ << ", .b(" << args[1] << ")";
    if (args.size() >= 3) os_ << ", .c(" << args[2] << ")";
    os_ << ", .q(" << result_id << "));\n\n";
    ++primitive_instances_;
  }

  /// Emits the top-level compute unit: per-lane PE instances wired to the
  /// kernel's streaming ports.
  void emit_top(const Function& main) {
    const std::string top = sanitize_identifier(mod_.name) + "_top";
    os_ << "// Top-level compute unit (" << mod_.ports.size()
        << " streaming ports)\n";
    os_ << "module " << top << " (\n";
    os_ << "  input  wire clk,\n  input  wire rst,\n  input  wire valid_in";
    for (const auto& p : mod_.ports) {
      const std::string id = sanitize_identifier(p.name);
      if (p.dir == ir::StreamDir::In) {
        os_ << ",\n  input  wire " << width_range(p.type.total_bits()) << " "
            << id;
      } else {
        os_ << ",\n  output wire " << width_range(p.type.total_bits()) << " "
            << id;
      }
    }
    os_ << ",\n  output wire valid_out\n);\n\n";

    int lane = 0;
    emit_calls(main, lane);
    // The last instantiated PE closes the valid chain (for par designs all
    // lanes share the same latency, so any of them would do).
    os_ << "  assign valid_out = "
        << (lane > 0 ? "lane" + std::to_string(lane - 1) + "_valid"
                     : std::string("valid_in"))
        << ";\n";
    os_ << "endmodule\n";
  }

  void emit_calls(const Function& f, int& lane) {
    // Under a par parent every lane sees valid_in directly; under a pipe
    // parent (a coarse-grained pipeline at the top) stages chain their
    // valid signals.
    const bool chain = f.kind == FuncKind::Pipe;
    std::string prev_valid = "valid_in";
    for (const auto* call : f.calls()) {
      const Function* callee = mod_.find_function(call->callee);
      if (callee == nullptr) continue;
      if (callee->kind == FuncKind::Par) {
        emit_calls(*callee, lane);
        continue;
      }
      os_ << "  // lane " << lane << ": " << callee->name << "\n";
      os_ << "  wire lane" << lane << "_valid;\n";
      os_ << "  " << sanitize_identifier(callee->name) << " u_lane" << lane
          << " (.clk(clk), .rst(rst), .valid_in("
          << (chain ? prev_valid : std::string("valid_in")) << ")";
      for (std::size_t j = 0;
           j < call->args.size() && j < callee->params.size(); ++j) {
        const auto& a = call->args[j];
        const std::string formal = sanitize_identifier(callee->params[j].name);
        std::string actual = "0";
        if (a.kind == Operand::Kind::Global) actual = sanitize_identifier(a.name);
        else if (a.kind == Operand::Kind::Local) actual = sanitize_identifier(a.name);
        os_ << ", ." << formal << "(" << actual << ")";
      }
      // Reduction outputs left open at the top level (observable in sim).
      os_ << ", .valid_out(lane" << lane << "_valid));\n\n";
      prev_valid = "lane" + std::to_string(lane) + "_valid";
      ++lane;
      // Nested coarse-grained pipelines: children already instantiated by
      // their parent module; nothing further to do here.
    }
  }

  const Module& mod_;
  std::ostringstream os_;
  std::set<std::pair<Opcode, bool>> used_ops_;
  std::set<std::string> delay_taps_;
  std::size_t primitive_instances_{0};
};

}  // namespace

std::string sanitize_identifier(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    out += (std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_')
               ? c
               : '_';
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0])) != 0) {
    out = "v_" + out;
  }
  return out;
}

VerilogDesign emit_verilog(const ir::Module& module) {
  return Emitter(module).run();
}

}  // namespace tytra::codegen
