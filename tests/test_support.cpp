// Tests for the support utilities: polynomial fitting, piecewise-linear
// and step models, the linear solver, string helpers and the RNG.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "tytra/support/diag.hpp"
#include "tytra/support/polyfit.hpp"
#include "tytra/support/rng.hpp"
#include "tytra/support/strings.hpp"

namespace {

using tytra::PiecewiseLinear;
using tytra::Polynomial;
using tytra::StepModel;

/// Root-mean-square error of `p` over the samples.
double rmse(const Polynomial& p, const std::vector<double>& xs,
            const std::vector<double>& ys) {
  double sum = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double e = p.eval(xs[i]) - ys[i];
    sum += e * e;
  }
  return std::sqrt(sum / static_cast<double>(xs.size()));
}

TEST(LinearSolver, SolvesIdentity) {
  const auto x = tytra::solve_linear_system({1, 0, 0, 1}, {3, -2}, 2);
  EXPECT_DOUBLE_EQ(x[0], 3.0);
  EXPECT_DOUBLE_EQ(x[1], -2.0);
}

TEST(LinearSolver, SolvesGeneral3x3) {
  // A = [[2,1,1],[1,3,2],[1,0,0]], b = [4,5,6] -> x = [6,15,-23]
  const auto x =
      tytra::solve_linear_system({2, 1, 1, 1, 3, 2, 1, 0, 0}, {4, 5, 6}, 3);
  EXPECT_NEAR(x[0], 6.0, 1e-9);
  EXPECT_NEAR(x[1], 15.0, 1e-9);
  EXPECT_NEAR(x[2], -23.0, 1e-9);
}

TEST(LinearSolver, RejectsSingular) {
  EXPECT_THROW(tytra::solve_linear_system({1, 1, 1, 1}, {1, 2}, 2),
               std::invalid_argument);
}

TEST(LinearSolver, RejectsDimensionMismatch) {
  EXPECT_THROW(tytra::solve_linear_system({1, 2, 3}, {1, 2}, 2),
               std::invalid_argument);
}

TEST(Polynomial, ExactQuadraticRecovery) {
  // The paper's divider law: x^2 + 3.7x - 10.6 from three points
  // (18, 32, 64 bits), then interpolate 24 bits — Fig. 9.
  const auto law = [](double x) { return x * x + 3.7 * x - 10.6; };
  const std::vector<double> xs = {18, 32, 64};
  std::vector<double> ys;
  for (const double x : xs) ys.push_back(law(x));
  const Polynomial p = Polynomial::fit(xs, ys, 2);
  EXPECT_NEAR(p.eval(24), law(24), 1e-6);
  EXPECT_NEAR(p.coeffs()[2], 1.0, 1e-9);
  EXPECT_NEAR(p.coeffs()[1], 3.7, 1e-9);
  EXPECT_NEAR(p.coeffs()[0], -10.6, 1e-7);
}

TEST(Polynomial, LeastSquaresLine) {
  const std::vector<double> xs = {0, 1, 2, 3};
  const std::vector<double> ys = {1, 3, 5, 7};  // y = 2x + 1
  const Polynomial p = Polynomial::fit(xs, ys, 1);
  EXPECT_NEAR(p.eval(10), 21.0, 1e-9);
  EXPECT_NEAR(rmse(p, xs, ys), 0.0, 1e-9);
}

TEST(Polynomial, OverdeterminedNoisyFitHasSmallRmse) {
  std::vector<double> xs;
  std::vector<double> ys;
  tytra::SplitMix64 rng(42);
  for (int i = 0; i < 50; ++i) {
    const double x = i;
    xs.push_back(x);
    ys.push_back(0.5 * x * x - 2 * x + 7 + rng.uniform(-0.1, 0.1));
  }
  const Polynomial p = Polynomial::fit(xs, ys, 2);
  EXPECT_LT(rmse(p, xs, ys), 0.1);
  EXPECT_NEAR(p.coeffs()[2], 0.5, 0.01);
}

TEST(Polynomial, FitRejectsBadInputs) {
  const std::vector<double> xs = {1, 2};
  const std::vector<double> ys = {1, 2};
  EXPECT_THROW(Polynomial::fit(xs, ys, 2), std::invalid_argument);
  EXPECT_THROW(Polynomial::fit(xs, ys, -1), std::invalid_argument);
  const std::vector<double> short_ys = {1};
  EXPECT_THROW(Polynomial::fit(xs, short_ys, 1), std::invalid_argument);
}

TEST(PiecewiseLinear, InterpolatesBetweenKnots) {
  const PiecewiseLinear pl({{0, 0}, {10, 100}});
  EXPECT_DOUBLE_EQ(pl.eval(5), 50.0);
  EXPECT_DOUBLE_EQ(pl.eval(0), 0.0);
  EXPECT_DOUBLE_EQ(pl.eval(10), 100.0);
}

TEST(PiecewiseLinear, ExtrapolatesLinearly) {
  const PiecewiseLinear pl({{0, 0}, {10, 100}});
  EXPECT_DOUBLE_EQ(pl.eval(-1), -10.0);
  EXPECT_DOUBLE_EQ(pl.eval(12), 120.0);
}

TEST(PiecewiseLinear, ThroughPointsSortsAndDeduplicates) {
  const std::vector<double> xs = {3, 1, 2, 2};
  const std::vector<double> ys = {30, 10, 99, 20};
  const PiecewiseLinear pl = PiecewiseLinear::through_points(xs, ys);
  ASSERT_EQ(pl.knots().size(), 3u);
  EXPECT_DOUBLE_EQ(pl.eval(2), 20.0);  // last duplicate wins
}

TEST(PiecewiseLinear, RejectsUnsortedKnots) {
  EXPECT_THROW(PiecewiseLinear({{1, 0}, {1, 1}}), std::invalid_argument);
  EXPECT_THROW(PiecewiseLinear({{2, 0}, {1, 1}}), std::invalid_argument);
}

TEST(PiecewiseLinear, SingleKnotIsConstant) {
  const PiecewiseLinear pl({{5, 42}});
  EXPECT_DOUBLE_EQ(pl.eval(0), 42.0);
  EXPECT_DOUBLE_EQ(pl.eval(100), 42.0);
}

TEST(StepModel, EvaluatesPlateaus) {
  const StepModel sm({{0, 1}, {18, 2}, {36, 4}});
  EXPECT_DOUBLE_EQ(sm.eval(10), 1.0);
  EXPECT_DOUBLE_EQ(sm.eval(18), 2.0);
  EXPECT_DOUBLE_EQ(sm.eval(35), 2.0);
  EXPECT_DOUBLE_EQ(sm.eval(60), 4.0);
  EXPECT_DOUBLE_EQ(sm.eval(-5), 1.0);  // below first step: first plateau
}

TEST(StepModel, FromSamplesDetectsDiscontinuities) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (int w = 1; w <= 40; ++w) {
    xs.push_back(w);
    ys.push_back(w <= 18 ? 1 : (w <= 27 ? 2 : 4));
  }
  const StepModel sm = StepModel::from_samples(xs, ys);
  const auto disc = sm.discontinuities();
  ASSERT_EQ(disc.size(), 2u);
  EXPECT_DOUBLE_EQ(disc[0], 19.0);
  EXPECT_DOUBLE_EQ(disc[1], 28.0);
}

TEST(StepModel, FromSamplesRejectsUnsorted) {
  const std::vector<double> xs = {2, 1};
  const std::vector<double> ys = {1, 1};
  EXPECT_THROW(StepModel::from_samples(xs, ys), std::invalid_argument);
}

TEST(Strings, TrimAndSplit) {
  EXPECT_EQ(tytra::trim("  a b  "), "a b");
  EXPECT_EQ(tytra::trim(""), "");
  EXPECT_EQ(tytra::trim("   "), "");
  const auto parts = tytra::split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(tytra::starts_with("tytra-ir", "tytra"));
  EXPECT_FALSE(tytra::starts_with("ty", "tytra"));
  EXPECT_TRUE(tytra::ends_with("kernel.tirl", ".tirl"));
  EXPECT_FALSE(tytra::ends_with("a", "ab"));
}

TEST(Strings, FormatSi) {
  EXPECT_EQ(tytra::format_si(1500.0, 1), "1.5 K");
  EXPECT_EQ(tytra::format_si(2.5e9, 1), "2.5 G");
  EXPECT_EQ(tytra::format_si(12.0, 0), "12 ");
}

TEST(Strings, Padding) {
  EXPECT_EQ(tytra::pad_left("ab", 4), "  ab");
  EXPECT_EQ(tytra::pad_right("ab", 4), "ab  ");
  EXPECT_EQ(tytra::pad_left("abcd", 2), "abcd");
}

TEST(Rng, DeterministicAcrossInstances) {
  tytra::SplitMix64 a(123);
  tytra::SplitMix64 b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformRangeRespected) {
  tytra::SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-1.0, 2.0);
    EXPECT_GE(v, -1.0);
    EXPECT_LT(v, 2.0);
    const auto n = rng.uniform_int(3, 9);
    EXPECT_GE(n, 3);
    EXPECT_LE(n, 9);
  }
}

TEST(Rng, Fnv1aStable) {
  EXPECT_EQ(tytra::fnv1a("abc"), tytra::fnv1a(std::string_view("abc")));
  EXPECT_NE(tytra::fnv1a("abc"), tytra::fnv1a("abd"));
}

TEST(Diag, ResultCarriesValueOrError) {
  tytra::Result<int> ok(5);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 5);
  tytra::Result<int> bad(tytra::make_error("boom", {3, 7}));
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error_message().find("boom"), std::string::npos);
  EXPECT_NE(bad.error_message().find("3:7"), std::string::npos);
}

TEST(Diag, BagCollectsAndDetectsErrors) {
  tytra::DiagBag bag;
  EXPECT_FALSE(bag.has_errors());
  bag.warning("just a warning");
  EXPECT_FALSE(bag.has_errors());
  bag.error("real problem");
  EXPECT_TRUE(bag.has_errors());
  EXPECT_EQ(bag.size(), 2u);
  EXPECT_NE(bag.to_string().find("warning"), std::string::npos);
}

}  // namespace
