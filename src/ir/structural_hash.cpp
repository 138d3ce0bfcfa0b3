#include "tytra/ir/structural_hash.hpp"

namespace tytra::ir {

namespace {

// Record tags keep adjacent variable-length sections from aliasing: a
// module with one fewer memobj and one extra streamobj must not replay
// the same field stream.
enum Tag : std::uint64_t {
  kTagMeta = 0x01,
  kTagMemObj = 0x02,
  kTagStreamObj = 0x03,
  kTagPort = 0x04,
  kTagFunction = 0x05,
  kTagParam = 0x06,
  kTagInstr = 0x07,
  kTagOffset = 0x08,
  kTagCall = 0x09,
  kTagOperand = 0x0a,
};

/// The walk is written against a sink; WideSink fans the field stream
/// into two HashBuilder states.
template <class Sink>
void put_scalar(Sink& s, const ScalarType& t) {
  s.u64(static_cast<std::uint64_t>(t.kind));
  s.u64(t.bits);
  // The printed form carries fractional bits only for fixed-point types;
  // mirror it so print-equality implies hash-equality.
  if (t.kind == ScalarKind::Fixed) s.u64(t.frac);
}

template <class Sink>
void put_type(Sink& s, const Type& t) {
  put_scalar(s, t.scalar);
  s.u64(t.lanes);
}

template <class Sink>
void put_operand(Sink& s, const Operand& op) {
  s.u64(kTagOperand);
  s.u64(static_cast<std::uint64_t>(op.kind));
  switch (op.kind) {
    case Operand::Kind::Local:
    case Operand::Kind::Global: s.str(op.name); break;
    case Operand::Kind::ConstInt: s.i64(op.ival); break;
    case Operand::Kind::ConstFloat: s.f64(op.fval); break;
  }
}

template <class Sink>
void put_function(Sink& s, const Function& f) {
  s.u64(kTagFunction);
  s.str(f.name);
  s.u64(static_cast<std::uint64_t>(f.kind));
  s.u64(f.params.size());
  for (const auto& p : f.params) {
    s.u64(kTagParam);
    put_type(s, p.type);
    s.str(p.name);
  }
  s.u64(f.body.size());
  for (const auto& item : f.body) {
    if (const auto* off = std::get_if<OffsetDecl>(&item)) {
      s.u64(kTagOffset);
      put_type(s, off->type);
      s.str(off->result);
      s.str(off->base);
      s.i64(off->offset);
    } else if (const auto* instr = std::get_if<Instr>(&item)) {
      s.u64(kTagInstr);
      s.u64(static_cast<std::uint64_t>(instr->op));
      put_type(s, instr->type);
      s.str(instr->result);
      s.u64(instr->result_global ? 1 : 0);
      s.u64(instr->args.size());
      for (const auto& a : instr->args) put_operand(s, a);
    } else {
      const auto& call = std::get<Call>(item);
      s.u64(kTagCall);
      s.str(call.callee);
      s.u64(static_cast<std::uint64_t>(call.kind_annot));
      s.u64(call.args.size());
      for (const auto& a : call.args) put_operand(s, a);
    }
  }
}

template <class Sink>
void put_module(Sink& s, const Module& m) {
  s.str(m.name);
  s.u64(kTagMeta);
  s.u64(m.meta.global_size);
  s.u64(m.meta.nki);
  s.u64(static_cast<std::uint64_t>(m.meta.form));
  s.f64(m.meta.freq_hz);
  s.u64(m.meta.ii);

  s.u64(m.memobjs.size());
  for (const auto& mo : m.memobjs) {
    s.u64(kTagMemObj);
    s.str(mo.name);
    put_scalar(s, mo.elem);
    s.u64(mo.size_words);
    s.u64(static_cast<std::uint64_t>(mo.space));
  }
  s.u64(m.streamobjs.size());
  for (const auto& so : m.streamobjs) {
    s.u64(kTagStreamObj);
    s.str(so.name);
    s.str(so.memobj);
    s.u64(static_cast<std::uint64_t>(so.dir));
    s.u64(static_cast<std::uint64_t>(so.pattern));
    // Hashed unconditionally, although the printer shows it only for
    // strided patterns: the throughput model reads a stream object's
    // stride under the *port's* pattern, so a hand-built module can make
    // it significant even when the stream object itself is contiguous.
    // Parser- and builder-produced modules always carry the default
    // stride 1 there, where the digest and the printed form agree.
    s.u64(so.stride_words);
  }
  s.u64(m.ports.size());
  for (const auto& p : m.ports) {
    s.u64(kTagPort);
    s.str(p.name);
    s.u64(static_cast<std::uint64_t>(p.space));
    put_type(s, p.type);
    s.u64(static_cast<std::uint64_t>(p.dir));
    s.u64(static_cast<std::uint64_t>(p.pattern));
    s.i64(p.init_offset);
    s.str(p.streamobj);
  }
  s.u64(m.functions.size());
  for (const auto& f : m.functions) put_function(s, f);
}

/// FNV-1a under a different offset basis and prime, so the check half
/// compresses string content independently of HashBuilder::str's
/// standard FNV word — a string collision against one compression does
/// not carry over to the other, keeping the digest's collision
/// resistance ~128-bit for names too.
std::uint64_t fnv1a_alt(std::string_view s) {
  std::uint64_t h = 0x6c62272e07bb0142ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x00000100000001b5ULL;
  }
  return h;
}

/// Sink fanning one walk into two independently seeded states.
struct WideSink {
  HashBuilder a;  // default seed
  HashBuilder b{0x9ae16a3b2f90404fULL};
  void u64(std::uint64_t v) { a.u64(v), b.u64(v); }
  void i64(std::int64_t v) { a.i64(v), b.i64(v); }
  void f64(double v) { a.f64(v), b.f64(v); }
  void str(std::string_view v) {
    a.str(v);
    b.u64(v.size()).u64(fnv1a_alt(v));
  }
};

}  // namespace

StructuralDigest structural_digest(const Module& module) {
  WideSink sink;
  put_module(sink, module);
  return {sink.a.value(), sink.b.value()};
}

}  // namespace tytra::ir
