// Tests for the TyTra-IR lexer, parser and printer, including the exact
// textual forms of the paper's Figs. 12 and 14 and print->parse
// round-trip identity.

#include <gtest/gtest.h>

#include <algorithm>

#include "tytra/ir/lexer.hpp"
#include "tytra/ir/parser.hpp"
#include "tytra/ir/printer.hpp"
#include "tytra/ir/verifier.hpp"

namespace {

using namespace tytra::ir;

// --------------------------------------------------------------------------
// Lexer
// --------------------------------------------------------------------------

TEST(Lexer, TokenKinds) {
  const auto toks = lex("define @f0 %p 42 3.5 \"CONT\" ; comment\n(");
  ASSERT_TRUE(toks.ok());
  const auto& v = toks.value();
  ASSERT_GE(v.size(), 7u);
  EXPECT_EQ(v[0].kind, TokKind::Ident);
  EXPECT_EQ(v[1].kind, TokKind::GlobalName);
  EXPECT_EQ(v[1].text, "f0");
  EXPECT_EQ(v[2].kind, TokKind::LocalName);
  EXPECT_EQ(v[2].text, "p");
  EXPECT_EQ(v[3].kind, TokKind::Integer);
  EXPECT_EQ(v[3].ival, 42);
  EXPECT_EQ(v[4].kind, TokKind::Float);
  EXPECT_DOUBLE_EQ(v[4].fval, 3.5);
  EXPECT_EQ(v[5].kind, TokKind::String);
  EXPECT_EQ(v[5].text, "CONT");
  EXPECT_TRUE(v[6].is_punct('('));  // comment skipped
}

TEST(Lexer, DottedNamesAndFixedTypes) {
  const auto toks = lex("@main.p fx16.8");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ(toks.value()[0].text, "main.p");
  EXPECT_EQ(toks.value()[1].text, "fx16.8");
}

TEST(Lexer, ScientificNotationAndHex) {
  const auto toks = lex("2e+08 1.5e-3 0x1F");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ(toks.value()[0].kind, TokKind::Float);
  EXPECT_DOUBLE_EQ(toks.value()[0].fval, 2e8);
  EXPECT_DOUBLE_EQ(toks.value()[1].fval, 1.5e-3);
  EXPECT_EQ(toks.value()[2].ival, 31);
}

TEST(Lexer, TracksLineNumbers) {
  const auto toks = lex("a\nb\n  c");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ(toks.value()[0].loc.line, 1);
  EXPECT_EQ(toks.value()[1].loc.line, 2);
  EXPECT_EQ(toks.value()[2].loc.line, 3);
  EXPECT_EQ(toks.value()[2].loc.col, 3);
}

TEST(Lexer, RejectsBadInput) {
  EXPECT_FALSE(lex("\"unterminated").ok());
  EXPECT_FALSE(lex("$$$").ok());
}

// --------------------------------------------------------------------------
// Parser: the paper's textual forms
// --------------------------------------------------------------------------

/// Close to Fig. 12: single SOR pipeline with offsets, datapath, reduction.
constexpr const char* kFig12 = R"(
; **** COMPUTE-IR ****
!ngs = 13824
!nki = 1000
!form = B
!ND1 = 24
!ND2 = 24
@main.p   = addrSpace(12) ui18, !"istream", !"CONT", !0, !"strobj_p"
@main.cn2l = addrSpace(1) ui18, !"istream", !"CONT", !0, !"strobj_cn2l"
@main.cn2s = addrSpace(1) ui18, !"istream", !"CONT", !0, !"strobj_cn2s"
@main.pnew = addrSpace(1) ui18, !"ostream", !"CONT", !0, !"strobj_pnew"
define void @f0(ui18 %p, ui18 %cn2l, ui18 %cn2s) pipe {
  ;stream offsets
  ui18 %pip1 = ui18 %p, !offset, !+1
  ui18 %pkn1 = ui18 %p, !offset, !-ND1*ND2
  ;datapath instructions
  ui18 %1 = mul ui18 %pip1, %cn2l
  ui18 %2 = mul ui18 %pkn1, %cn2s
  ui18 %sorErr = add ui18 %1, %2
  ui18 @pnew = add ui18 %sorErr, %p
  ;reduction operation on global variable
  ui18 @sorErrAcc = add ui18 %sorErr, @sorErrAcc
}
define void @main () {
  call @f0(@main.p, @main.cn2l, @main.cn2s) pipe }
)";

TEST(Parser, ParsesFig12Style) {
  auto result = parse_module(kFig12);
  ASSERT_TRUE(result.ok()) << result.error_message();
  const Module& m = result.value().module;
  EXPECT_EQ(m.meta.global_size, 13824u);
  EXPECT_EQ(m.meta.nki, 1000u);
  EXPECT_EQ(m.meta.form, ExecForm::B);
  ASSERT_EQ(m.ports.size(), 4u);
  const auto inputs = std::count_if(
      m.ports.begin(), m.ports.end(),
      [](const PortBinding& p) { return p.dir == StreamDir::In; });
  EXPECT_EQ(inputs, 3);
  const Function* f0 = m.find_function("f0");
  ASSERT_NE(f0, nullptr);
  EXPECT_EQ(f0->kind, FuncKind::Pipe);
  ASSERT_EQ(f0->params.size(), 3u);
  EXPECT_EQ(f0->offsets().size(), 2u);
  EXPECT_EQ(f0->offsets()[1]->offset, -24 * 24);  // !-ND1*ND2 resolved
  EXPECT_EQ(f0->instructions().size(), 5u);
  // addrSpace(12) accepted with a warning, mapped to global.
  EXPECT_FALSE(result.value().warnings.empty());
  EXPECT_EQ(m.ports[0].space, AddrSpace::Global);
}

TEST(Parser, Fig12StyleVerifies) {
  auto result = parse_module(kFig12);
  ASSERT_TRUE(result.ok());
  const auto diags = verify(result.value().module);
  EXPECT_FALSE(diags.has_errors()) << diags.to_string();
}

/// Fig. 14: multiple pipeline lanes under a par function.
constexpr const char* kFig14 = R"(
!ngs = 1024
@main.p0 = addrSpace(1) ui18, !"istream", !"CONT", !0, !"s0"
@main.p1 = addrSpace(1) ui18, !"istream", !"CONT", !0, !"s1"
@main.p2 = addrSpace(1) ui18, !"istream", !"CONT", !0, !"s2"
@main.p3 = addrSpace(1) ui18, !"istream", !"CONT", !0, !"s3"
define void @f0(ui18 %p) pipe {
  ui18 %t = mul ui18 %p, 3
  ui18 @acc = add ui18 %t, @acc
}
define void @f1 () par {
  call @f0(@main.p0) pipe
  call @f0(@main.p1) pipe
  call @f0(@main.p2) pipe
  call @f0(@main.p3) pipe }
define void @main () {
  call @f1() par }
)";

TEST(Parser, ParsesFig14MultiLane) {
  auto result = parse_module(kFig14);
  ASSERT_TRUE(result.ok()) << result.error_message();
  const Module& m = result.value().module;
  const Function* f1 = m.find_function("f1");
  ASSERT_NE(f1, nullptr);
  EXPECT_EQ(f1->kind, FuncKind::Par);
  EXPECT_EQ(f1->calls().size(), 4u);
  EXPECT_FALSE(verify(m).has_errors()) << verify(m).to_string();
}

TEST(Parser, ParsesManageIr) {
  const char* src = R"(
!ngs = 100
memobj @m_p global ui18 x 100
memobj @m_out local ui18 x 100
stream @s_p reads @m_p pattern cont
stream @s_out writes @m_out pattern strided 64
define void @main () { }
)";
  auto result = parse_module(src);
  ASSERT_TRUE(result.ok()) << result.error_message();
  const Module& m = result.value().module;
  ASSERT_EQ(m.memobjs.size(), 2u);
  EXPECT_EQ(m.memobjs[0].space, AddrSpace::Global);
  EXPECT_EQ(m.memobjs[1].space, AddrSpace::Local);
  ASSERT_EQ(m.streamobjs.size(), 2u);
  EXPECT_EQ(m.streamobjs[0].dir, StreamDir::In);
  EXPECT_EQ(m.streamobjs[1].pattern, AccessPattern::Strided);
  EXPECT_EQ(m.streamobjs[1].stride_words, 64u);
}

TEST(Parser, ParsesVectorTypesAndSeqComb) {
  const char* src = R"(
!ngs = 64
define void @c0(ui18 %a) comb {
  ui18 %x = add ui18 %a, 1
}
define void @s0(<4 x ui18> %v) seq {
  <4 x ui18> %y = mul <4 x ui18> %v, %v
}
define void @main () {
  call @s0(@v) seq
}
)";
  auto result = parse_module(src);
  ASSERT_TRUE(result.ok()) << result.error_message();
  const Module& m = result.value().module;
  EXPECT_EQ(m.find_function("c0")->kind, FuncKind::Comb);
  const Function* s0 = m.find_function("s0");
  EXPECT_EQ(s0->kind, FuncKind::Seq);
  EXPECT_EQ(s0->params[0].type.lanes, 4);
}

TEST(Parser, ParsesNegativeAndFloatConstants) {
  const char* src = R"(
!ngs = 8
define void @f0(f32 %a) pipe {
  f32 %x = mul f32 %a, -2.5
  f32 %y = add f32 %x, 1.0
  f32 %z = sub f32 %y, -3
}
define void @main () { call @f0(@a) pipe }
)";
  auto result = parse_module(src);
  ASSERT_TRUE(result.ok()) << result.error_message();
  const auto* f0 = result.value().module.find_function("f0");
  const auto instrs = f0->instructions();
  EXPECT_DOUBLE_EQ(instrs[0]->args[1].fval, -2.5);
  EXPECT_EQ(instrs[2]->args[1].ival, 3 * -1);
}

TEST(Parser, ErrorsCarryLocations) {
  const auto bad = parse_module("define void @f0() bogus { }");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error_message().find("bogus"), std::string::npos);

  const auto bad2 = parse_module("!ngs = \n");
  EXPECT_FALSE(bad2.ok());

  const auto bad3 = parse_module(R"(
define void @f0(ui18 %p) pipe {
  ui18 %x = frobnicate ui18 %p, %p
}
)");
  ASSERT_FALSE(bad3.ok());
  EXPECT_NE(bad3.error_message().find("frobnicate"), std::string::npos);
}

TEST(Parser, RejectsUnknownOffsetConstant) {
  const auto bad = parse_module(R"(
define void @f0(ui18 %p) pipe {
  ui18 %x = ui18 %p, !offset, !-NOPE
}
)");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error_message().find("NOPE"), std::string::npos);
}

TEST(Parser, RejectsUnterminatedBody) {
  EXPECT_FALSE(parse_module("define void @f0() pipe {").ok());
}

// --------------------------------------------------------------------------
// Printer round-trip
// --------------------------------------------------------------------------

TEST(Printer, RoundTripPreservesStructure) {
  auto first = parse_module(kFig12);
  ASSERT_TRUE(first.ok());
  const std::string printed = print_module(first.value().module);
  auto second = parse_module(printed);
  ASSERT_TRUE(second.ok()) << second.error_message() << "\n" << printed;

  const Module& a = first.value().module;
  const Module& b = second.value().module;
  EXPECT_EQ(a.meta.global_size, b.meta.global_size);
  EXPECT_EQ(a.meta.nki, b.meta.nki);
  EXPECT_EQ(a.ports.size(), b.ports.size());
  ASSERT_EQ(a.functions.size(), b.functions.size());
  for (std::size_t i = 0; i < a.functions.size(); ++i) {
    EXPECT_EQ(a.functions[i].name, b.functions[i].name);
    EXPECT_EQ(a.functions[i].kind, b.functions[i].kind);
    EXPECT_EQ(a.functions[i].body.size(), b.functions[i].body.size());
  }
  // Printing again yields the identical text (fixpoint).
  EXPECT_EQ(print_module(b), printed);
}

TEST(Printer, OperandForms) {
  EXPECT_EQ(print_operand(Operand::local("x")), "%x");
  EXPECT_EQ(print_operand(Operand::global("acc")), "@acc");
  EXPECT_EQ(print_operand(Operand::const_int(-7)), "-7");
  const std::string f = print_operand(Operand::const_float(2.0));
  EXPECT_NE(f.find('.'), std::string::npos);  // re-lexes as a float
}

TEST(Printer, ManageIrRoundTrip) {
  const char* src = R"(
!ngs = 100
memobj @m global ui18 x 100
stream @s reads @m pattern strided 8
@main.p = addrSpace(1) ui18, !"istream", !"STRIDED", !0, !"s"
define void @main () { }
)";
  auto first = parse_module(src);
  ASSERT_TRUE(first.ok()) << first.error_message();
  auto second = parse_module(print_module(first.value().module));
  ASSERT_TRUE(second.ok()) << second.error_message();
  EXPECT_EQ(second.value().module.streamobjs[0].stride_words, 8u);
  EXPECT_EQ(second.value().module.ports[0].pattern, AccessPattern::Strided);
}

}  // namespace
