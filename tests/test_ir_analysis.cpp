// Tests for the IR analyses: configuration-tree extraction (Fig. 8),
// design-space classification (Fig. 5), pipeline scheduling / KPD, and
// Table-I parameter extraction.

#include <gtest/gtest.h>

#include "tytra/ir/analysis.hpp"
#include "tytra/ir/parser.hpp"
#include "tytra/kernels/kernels.hpp"

namespace {

using namespace tytra::ir;
namespace kernels = tytra::kernels;

std::size_t leaf_count(const ConfigNode& node) {
  if (node.children.empty()) return 1;
  std::size_t n = 0;
  for (const auto& c : node.children) n += leaf_count(c);
  return n;
}

TEST(ConfigTree, SinglePipeIsC2) {
  const auto m = parse_module_or_die(R"(
!ngs = 64
define void @f0(ui18 %a) pipe { ui18 %x = add ui18 %a, 1 }
define void @main () { call @f0(@a) pipe }
)");
  const ConfigNode tree = build_config_tree(m);
  EXPECT_EQ(tree.kind, FuncKind::Pipe);
  EXPECT_EQ(tree.func->name, "f0");
  EXPECT_EQ(classify_config(m), ConfigClass::C2);
}

TEST(ConfigTree, ParOfPipesIsC1) {
  const kernels::SorConfig cfg{.im = 8, .jm = 8, .km = 8, .lanes = 4};
  const Module m = kernels::make_sor(cfg);
  const ConfigNode tree = build_config_tree(m);
  EXPECT_EQ(tree.kind, FuncKind::Par);
  EXPECT_EQ(tree.children.size(), 4u);
  EXPECT_EQ(leaf_count(tree), 4u);
  EXPECT_EQ(classify_config(m), ConfigClass::C1);
  const std::string fmt = format_config_tree(tree);
  EXPECT_NE(fmt.find("par @f1"), std::string::npos);
  EXPECT_NE(fmt.find("  pipe @f0"), std::string::npos);
}

TEST(ConfigTree, SeqIsC4AndVectorSeqIsC5) {
  const auto m = parse_module_or_die(R"(
!ngs = 64
define void @s0(ui18 %a) seq { ui18 %x = add ui18 %a, 1 }
define void @main () { call @s0(@a) seq }
)");
  EXPECT_EQ(classify_config(m), ConfigClass::C4);

  const auto mv = parse_module_or_die(R"(
!ngs = 64
@main.v = addrSpace(1) <4 x ui18>, !"istream", !"CONT", !0, !"s"
define void @s0(<4 x ui18> %a) seq { <4 x ui18> %x = add <4 x ui18> %a, 1 }
define void @main () { call @s0(@v) seq }
)");
  EXPECT_EQ(classify_config(mv), ConfigClass::C5);
}

TEST(ConfigTree, VectorPipeIsC3) {
  const auto m = parse_module_or_die(R"(
!ngs = 64
@main.v = addrSpace(1) <4 x ui18>, !"istream", !"CONT", !0, !"s"
define void @f0(<4 x ui18> %a) pipe { <4 x ui18> %x = add <4 x ui18> %a, 1 }
define void @main () { call @f0(@v) pipe }
)");
  EXPECT_EQ(classify_config(m), ConfigClass::C3);
}

TEST(ConfigTree, CoarseGrainedPipelineWithComb) {
  // Fig. 8: a coarse-grained pipeline where one peer uses a comb function.
  const auto m = parse_module_or_die(R"(
!ngs = 64
define void @c0(ui18 %a) comb { ui18 %x = xor ui18 %a, 1 }
define void @fA(ui18 %a) pipe {
  ui18 %x = mul ui18 %a, %a
  call @c0(%x) comb
}
define void @fB(ui18 %a) pipe { ui18 %y = add ui18 %a, 1 }
define void @top() pipe {
  call @fA(@a) pipe
  call @fB(@a) pipe
}
define void @main () { call @top() pipe }
)");
  const ConfigNode tree = build_config_tree(m);
  EXPECT_EQ(tree.kind, FuncKind::Pipe);
  ASSERT_EQ(tree.children.size(), 2u);
  EXPECT_EQ(tree.children[0].children.size(), 1u);  // the comb child
  EXPECT_EQ(tree.children[0].children[0].kind, FuncKind::Comb);
}

// --------------------------------------------------------------------------
// Scheduling / KPD
// --------------------------------------------------------------------------

TEST(Schedule, ChainDepthAccumulatesLatencies) {
  const auto m = parse_module_or_die(R"(
!ngs = 64
define void @f0(ui18 %a) pipe {
  ui18 %x = mul ui18 %a, %a
  ui18 %y = mul ui18 %x, %x
  ui18 %z = add ui18 %y, 1
}
define void @main () { call @f0(@a) pipe }
)");
  const auto* f0 = m.find_function("f0");
  const FunctionSchedule s = schedule_function(m, *f0);
  // mul(ui18) latency 2, chained twice, then add latency 1: %x is ready at
  // 2, %y at 4 and %z at 5.
  EXPECT_EQ(s.issue_at, (std::vector<int>{0, 2, 4}));
  EXPECT_EQ(s.arg_ready, (std::vector<int>{0, 0, 2, 2, 4, 0}));
  EXPECT_EQ(s.depth, 5);
  EXPECT_EQ(pipeline_depth(m), 5);
}

TEST(Schedule, ArgumentReadinessReadsTheLastDefinition) {
  // Not SSA: %x is redefined and %z is used before its definition. An
  // instruction issues on the definitions before it, while the readiness
  // recorded per argument (which sizes the delay registers) is that of the
  // name's last definition in the function.
  const auto m = parse_module_or_die(R"(
!ngs = 64
define void @f0(ui18 %a) pipe {
  ui18 %x = mul ui18 %a, %a
  ui18 %y = add ui18 %x, %z
  ui18 %x = add ui18 %a, 1
  ui18 %z = mul ui18 %x, %x
}
define void @main () { call @f0(@a) pipe }
)");
  const FunctionSchedule s = schedule_function(m, *m.find_function("f0"));
  EXPECT_EQ(s.issue_at, (std::vector<int>{0, 2, 0, 1}));
  EXPECT_EQ(s.arg_ready, (std::vector<int>{0, 0, 1, 3, 0, 0, 1, 1}));
  EXPECT_EQ(s.depth, 3);
  // The summary's memoized walk records the same.
  const AnalysisSummary summary = summarize(m);
  const FunctionSummary& fs = summary.functions[0];
  EXPECT_EQ(fs.schedule.issue_at, s.issue_at);
  EXPECT_EQ(fs.schedule.arg_ready, s.arg_ready);
}

TEST(Schedule, IndependentOpsIssueInParallel) {
  const auto m = parse_module_or_die(R"(
!ngs = 64
define void @f0(ui18 %a, ui18 %b) pipe {
  ui18 %x = mul ui18 %a, %a
  ui18 %y = mul ui18 %b, %b
  ui18 %z = add ui18 %x, %y
}
define void @main () { call @f0(@a, @b) pipe }
)");
  const FunctionSchedule s = schedule_function(m, *m.find_function("f0"));
  EXPECT_EQ(s.issue_at[0], 0);
  EXPECT_EQ(s.issue_at[1], 0);  // independent: same stage
  EXPECT_EQ(s.issue_at[2], 2);
  EXPECT_EQ(s.depth, 3);
}

TEST(Schedule, CoarsePipelineSumsChildDepths) {
  const auto m = parse_module_or_die(R"(
!ngs = 64
define void @fA(ui18 %a) pipe { ui18 %x = mul ui18 %a, %a }
define void @fB(ui18 %a) pipe { ui18 %y = add ui18 %a, 1 }
define void @top() pipe {
  call @fA(@a) pipe
  call @fB(@a) pipe
}
define void @main () { call @top() pipe }
)");
  EXPECT_EQ(pipeline_depth(m), 2 + 1);
}

TEST(Schedule, ParTakesMaxOfChildren) {
  const auto m = parse_module_or_die(R"(
!ngs = 64
define void @fA(ui18 %a) pipe { ui18 %x = mul ui18 %a, %a }
define void @fB(ui18 %a) pipe { ui18 %y = add ui18 %a, 1 }
define void @top() par {
  call @fA(@a) pipe
  call @fB(@b) pipe
}
define void @main () { call @top() par }
)");
  EXPECT_EQ(pipeline_depth(m), 2);
}

TEST(Schedule, OffsetStreamsReadyAtZero) {
  const auto m = parse_module_or_die(R"(
!ngs = 64
define void @f0(ui18 %p) pipe {
  ui18 %pp = ui18 %p, !offset, !+1
  ui18 %x = add ui18 %pp, %p
}
define void @main () { call @f0(@p) pipe }
)");
  const FunctionSchedule s = schedule_function(m, *m.find_function("f0"));
  EXPECT_EQ(s.arg_ready, (std::vector<int>{0, 0}));  // %pp, %p
  EXPECT_EQ(s.depth, 1);
}

// --------------------------------------------------------------------------
// Parameter extraction (Table I)
// --------------------------------------------------------------------------

TEST(Params, SorSingleLane) {
  kernels::SorConfig cfg;
  cfg.im = cfg.jm = cfg.km = 24;
  cfg.nki = 1000;
  const Module m = kernels::make_sor(cfg);
  const DesignParams p = extract_params(m);
  EXPECT_EQ(p.ngs, 24u * 24 * 24);
  EXPECT_EQ(p.nki, 1000u);
  EXPECT_DOUBLE_EQ(p.nwpt, 10.0);  // 9 inputs + 1 output
  EXPECT_EQ(p.knl, 1u);
  EXPECT_EQ(p.dv, 1u);
  EXPECT_EQ(p.noff, 24u * 24);  // the k-plane offset
  EXPECT_GT(p.kpd, 5);
  EXPECT_EQ(p.form, ExecForm::B);
}

TEST(Params, SorMultiLaneKeepsNwptAndScalesKnl) {
  kernels::SorConfig cfg;
  cfg.im = cfg.jm = cfg.km = 8;
  cfg.lanes = 4;
  const Module m = kernels::make_sor(cfg);
  const DesignParams p = extract_params(m);
  EXPECT_EQ(p.knl, 4u);
  EXPECT_DOUBLE_EQ(p.nwpt, 10.0);
  EXPECT_EQ(m.ports.size(), 40u);
}

TEST(Params, LanesDoNotChangeKpd) {
  kernels::SorConfig one;
  one.im = one.jm = one.km = 8;
  kernels::SorConfig four = one;
  four.lanes = 4;
  EXPECT_EQ(extract_params(kernels::make_sor(one)).kpd,
            extract_params(kernels::make_sor(four)).kpd);
}

TEST(Params, SeqUsesMeanLatencyAsNto) {
  const auto m = parse_module_or_die(R"(
!ngs = 64
define void @s0(ui18 %a) seq {
  ui18 %x = mul ui18 %a, %a
  ui18 %y = add ui18 %x, 1
}
define void @main () { call @s0(@a) seq }
)");
  const DesignParams p = extract_params(m);
  EXPECT_DOUBLE_EQ(p.nto, (2.0 + 1.0) / 2.0);
  EXPECT_DOUBLE_EQ(p.ni, 2.0);
}

TEST(Params, PipeUsesIiAsNto) {
  const auto m = parse_module_or_die(R"(
!ngs = 64
!ii = 2
define void @f0(ui18 %a) pipe { ui18 %x = add ui18 %a, 1 }
define void @main () { call @f0(@a) pipe }
)");
  const DesignParams p = extract_params(m);
  EXPECT_DOUBLE_EQ(p.nto, 2.0);
  EXPECT_DOUBLE_EQ(p.ni, 1.0);
}

TEST(Params, InstructionsPerPeDividesByLanes) {
  kernels::SorConfig one;
  one.im = one.jm = one.km = 8;
  kernels::SorConfig four = one;
  four.lanes = 4;
  EXPECT_DOUBLE_EQ(instructions_per_pe(kernels::make_sor(one)),
                   instructions_per_pe(kernels::make_sor(four)));
  EXPECT_EQ(lane_count(kernels::make_sor(four)), 4u);
}

TEST(Params, NoffIncludesPortInitOffset) {
  const auto m = parse_module_or_die(R"(
!ngs = 64
@main.p = addrSpace(1) ui18, !"istream", !"CONT", !-100, !"s"
define void @f0(ui18 %a) pipe { ui18 %x = add ui18 %a, 1 }
define void @main () { call @f0(@p) pipe }
)");
  EXPECT_EQ(extract_params(m).noff, 100u);
}

}  // namespace
