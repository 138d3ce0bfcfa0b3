// Tests for the type-transformation front-end: variant construction
// rules, reshapeTo size preservation, and variant enumeration.

#include <gtest/gtest.h>

#include <functional>
#include <numeric>

#include "tytra/frontend/transform.hpp"

namespace {

using namespace tytra::frontend;

std::uint64_t flat_size(const Variant& v) {
  return std::accumulate(v.dims().begin(), v.dims().end(), std::uint64_t{1},
                         std::multiplies<>());
}

bool pipelined(const Variant& v) { return v.anns().back() == ParAnn::Pipe; }

TEST(Variant, BaselineIsSinglePipelinedMap) {
  const Variant v = baseline_variant(1024);
  EXPECT_EQ(v.dims(), (std::vector<std::uint64_t>{1024}));
  EXPECT_EQ(v.lanes(), 1u);
  EXPECT_TRUE(pipelined(v));
  EXPECT_EQ(v.describe(), "map^pipe[1024] (f)");
}

TEST(Variant, ReshapePreservesSize) {
  const Variant v = reshape_to(baseline_variant(1024), 4, ParAnn::Par);
  EXPECT_EQ(flat_size(v), 1024u);
  EXPECT_EQ(v.dims(), (std::vector<std::uint64_t>{4, 256}));
  EXPECT_EQ(v.lanes(), 4u);
  EXPECT_TRUE(pipelined(v));
  EXPECT_EQ(v.describe(), "map^par[4] (map^pipe[256] (f))");
}

TEST(Variant, ReshapeRejectsNonDivisor) {
  EXPECT_THROW(reshape_to(baseline_variant(1000), 7, ParAnn::Par),
               std::invalid_argument);
  EXPECT_THROW(reshape_to(baseline_variant(1000), 0, ParAnn::Par),
               std::invalid_argument);
}

TEST(Variant, RepeatedReshapeNests) {
  Variant v = baseline_variant(1024);
  v = reshape_to(v, 4, ParAnn::Par);
  v = reshape_to(v, 2, ParAnn::Pipe);
  EXPECT_EQ(v.dims(), (std::vector<std::uint64_t>{4, 2, 128}));
  EXPECT_EQ(flat_size(v), 1024u);
  EXPECT_EQ(v.lanes(), 4u);
}

TEST(Variant, ParInsideNonParRejected) {
  // Thread parallelism must enclose pipelines (Fig. 7).
  EXPECT_THROW(Variant({2, 4}, {ParAnn::Pipe, ParAnn::Par}),
               std::invalid_argument);
  EXPECT_NO_THROW(Variant({2, 4}, {ParAnn::Par, ParAnn::Pipe}));
  EXPECT_NO_THROW(Variant({2, 4, 8}, {ParAnn::Par, ParAnn::Par, ParAnn::Pipe}));
}

TEST(Variant, ConstructionRejectsBadShapes) {
  EXPECT_THROW(Variant({}, {}), std::invalid_argument);
  EXPECT_THROW(Variant({4}, {ParAnn::Pipe, ParAnn::Pipe}), std::invalid_argument);
  EXPECT_THROW(Variant({0}, {ParAnn::Pipe}), std::invalid_argument);
}

TEST(Enumerate, CoversDivisorsUpToMaxLanes) {
  const auto variants = enumerate_variants(24, 16);
  // baseline + lanes 2,3,4,6,8,12 (divisors of 24 in [2,16])
  ASSERT_EQ(variants.size(), 7u);
  EXPECT_EQ(variants[0].lanes(), 1u);
  std::vector<std::uint32_t> lanes;
  for (const auto& v : variants) lanes.push_back(v.lanes());
  EXPECT_EQ(lanes, (std::vector<std::uint32_t>{1, 2, 3, 4, 6, 8, 12}));
}

TEST(Enumerate, SeqVariantOptIn) {
  const auto with = enumerate_variants(8, 4, true);
  const auto without = enumerate_variants(8, 4, false);
  EXPECT_EQ(with.size(), without.size() + 1);
  EXPECT_EQ(with.back().anns().back(), ParAnn::Seq);
}

TEST(Enumerate, AllVariantsPreserveSize) {
  for (const auto& v : enumerate_variants(5040, 50, true)) {
    EXPECT_EQ(flat_size(v), 5040u) << v.describe();
  }
}

}  // namespace
