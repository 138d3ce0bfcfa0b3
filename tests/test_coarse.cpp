// Tests for the coarse-grained pipeline configuration (Fig. 7 config 3,
// Fig. 8): structure, scheduling, functional correctness through the
// inter-stage stream and the inlined comb block, costing and codegen.

#include <gtest/gtest.h>

#include "tytra/codegen/verilog.hpp"
#include "tytra/cost/report.hpp"
#include "tytra/fabric/synth.hpp"
#include "tytra/ir/analysis.hpp"
#include "tytra/ir/verifier.hpp"
#include "tytra/kernels/coarse.hpp"
#include "tytra/sim/functional.hpp"

namespace {

using namespace tytra;

kernels::CoarseConfig small() {
  kernels::CoarseConfig cfg;
  cfg.items = 512;
  return cfg;
}

TEST(Coarse, VerifiesAndClassifies) {
  const ir::Module m = kernels::make_coarse_pipeline(small());
  const auto diags = ir::verify(m);
  EXPECT_FALSE(diags.has_errors()) << diags.to_string();

  const ir::ConfigNode tree = ir::build_config_tree(m);
  ASSERT_EQ(tree.children.size(), 2u);
  EXPECT_EQ(tree.children[0].func->name, "stageA");
  EXPECT_EQ(tree.children[1].func->name, "stageB");
  // Stage B carries the comb child — the Fig. 8 shape.
  ASSERT_EQ(tree.children[1].children.size(), 1u);
  EXPECT_EQ(tree.children[1].children[0].kind, ir::FuncKind::Comb);
}

TEST(Coarse, KpdIsTheSumOfStageDepths) {
  const ir::Module m = kernels::make_coarse_pipeline(small());
  const auto* a = m.find_function("stageA");
  const auto* b = m.find_function("stageB");
  const int da = ir::schedule_function(m, *a).depth;
  const int db_ = ir::schedule_function(m, *b).depth;
  EXPECT_EQ(ir::pipeline_depth(m), da + db_);
  EXPECT_GT(da, 0);
  EXPECT_GT(db_, 0);
}

TEST(Coarse, FunctionalMatchesReferenceThroughBothStages) {
  const auto cfg = small();
  const ir::Module m = kernels::make_coarse_pipeline(cfg);
  const auto inputs = kernels::coarse_inputs(cfg);
  const auto run = sim::run_functional(m, inputs);
  ASSERT_TRUE(run.ok()) << run.error_message();
  const auto ref = kernels::coarse_reference(cfg, inputs);
  const auto& y = run.value().outputs.at("y");
  ASSERT_EQ(y.size(), ref.size());
  for (std::size_t i = 0; i < y.size(); ++i) {
    ASSERT_DOUBLE_EQ(y[i], ref[i]) << "at " << i;
  }
  // The intermediate stream is observable too.
  EXPECT_EQ(run.value().outputs.at("mid").size(), cfg.items);
}

TEST(Coarse, CombClampActuallyClamps) {
  kernels::CoarseConfig cfg = small();
  auto inputs = kernels::coarse_inputs(cfg);
  // Force saturation without overflowing ui18 in the product:
  // mid = 3*20500 = 61500, prod = 246000 < 2^18, prod>>2 = 61500 > 60000.
  for (auto& v : inputs["x"]) v = 20500;
  for (auto& v : inputs["w"]) v = 4;
  const auto run =
      sim::run_functional(kernels::make_coarse_pipeline(cfg), inputs);
  ASSERT_TRUE(run.ok());
  for (const double v : run.value().outputs.at("y")) {
    EXPECT_LE(v, 60000.0);
  }
  EXPECT_DOUBLE_EQ(run.value().outputs.at("y")[5], 60000.0);
}

TEST(Coarse, CostModelAndFabricAgree) {
  const ir::Module m = kernels::make_coarse_pipeline(small());
  const auto db = cost::DeviceCostDb::calibrate(target::stratix_v_gsd8());
  const auto report = cost::cost_design(m, db);
  EXPECT_TRUE(report.valid);
  const auto synth = fabric::synthesize(m, target::stratix_v_gsd8());
  EXPECT_TRUE(synth.fits);
  const double err = std::abs(report.resources.total.aluts - synth.total.aluts) /
                     synth.total.aluts * 100.0;
  EXPECT_LT(err, 15.0);
}

TEST(Coarse, CodegenChainsStagesAndInlinesNothingTwice) {
  const ir::Module m = kernels::make_coarse_pipeline(small());
  const auto design = codegen::emit_verilog(m);
  // Both stage modules defined once each.
  EXPECT_NE(design.source.find("module stageA"), std::string::npos);
  EXPECT_NE(design.source.find("module stageB"), std::string::npos);
  // The top chains stage B's valid_in to stage A's valid_out.
  EXPECT_NE(design.source.find(".valid_in(lane0_valid)"), std::string::npos);
  EXPECT_NE(design.source.find("assign valid_out = lane1_valid;"),
            std::string::npos);
  EXPECT_EQ(design.pipeline_depth, ir::pipeline_depth(m));
}

TEST(Coarse, ParamsSeeCoarseDepthButSingleLane) {
  const ir::Module m = kernels::make_coarse_pipeline(small());
  const ir::DesignParams p = ir::extract_params(m);
  EXPECT_EQ(p.knl, 1u);
  EXPECT_DOUBLE_EQ(p.nwpt, 4.0);  // x, w, mid, y
  EXPECT_EQ(p.noff, 1u);
}

}  // namespace
