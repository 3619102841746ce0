#include "util/numeric.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.hpp"

namespace u = lv::util;

TEST(Bisect, FindsRootOfLinearFunction) {
  const auto r = u::bisect([](double x) { return 2.0 * x - 1.0; }, 0.0, 1.0);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->converged);
  EXPECT_NEAR(r->x, 0.5, 1e-8);
}

TEST(Bisect, FindsRootOfTranscendental) {
  const auto r =
      u::bisect([](double x) { return std::cos(x) - x; }, 0.0, 1.0, 1e-12);
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(r->x, 0.7390851332151607, 1e-9);
}

TEST(Bisect, ReturnsNulloptWithoutSignChange) {
  const auto r = u::bisect([](double x) { return x * x + 1.0; }, -1.0, 1.0);
  EXPECT_FALSE(r.has_value());
}

TEST(Bisect, AcceptsRootAtEndpoint) {
  const auto r = u::bisect([](double x) { return x; }, 0.0, 1.0);
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(r->x, 0.0);
}

TEST(Bisect, KnownEndValuesAreNotEvaluatedAgain) {
  // Handing in f(lo) and f(hi) gives the same root, bit for bit, and f
  // is called only strictly inside the bracket.
  const auto f = [](double x) { return std::cos(x) - x; };
  int calls = 0;
  bool inside = true;
  const auto counted = [&](double x) {
    ++calls;
    inside = inside && x > 0.0 && x < 1.0;
    return f(x);
  };
  const auto want = u::bisect(f, 0.0, 1.0, 1e-12);
  const auto got = u::bisect(counted, 0.0, 1.0, f(0.0), f(1.0), 1e-12);
  ASSERT_TRUE(want.has_value());
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->x, want->x);
  EXPECT_EQ(got->iterations, want->iterations);
  EXPECT_EQ(calls, got->iterations + 1);
  EXPECT_TRUE(inside);
}

TEST(Bisect, ThrowsOnInvertedInterval) {
  EXPECT_THROW(u::bisect([](double x) { return x; }, 1.0, 0.0), u::Error);
}

TEST(GoldenMinimize, FindsParabolaMinimum) {
  const auto r = u::golden_minimize(
      [](double x) { return (x - 0.3) * (x - 0.3) + 2.0; }, -1.0, 1.0, 1e-10);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 0.3, 1e-7);
  EXPECT_NEAR(r.value, 2.0, 1e-12);
}

TEST(GoldenMinimize, HandlesMinimumAtBoundary) {
  const auto r = u::golden_minimize([](double x) { return x; }, 0.0, 1.0);
  EXPECT_NEAR(r.x, 0.0, 1e-6);
}

TEST(GridRefineMinimize, EscapesLocalTrapOfPlainGolden) {
  // Two wells; the global minimum is the right one at x ~ 2.8.
  auto f = [](double x) {
    return std::min((x - 0.5) * (x - 0.5) + 1.0,
                    3.0 * (x - 2.8) * (x - 2.8) + 0.2);
  };
  const auto r = u::grid_refine_minimize(f, 0.0, 4.0, 128, 1e-9);
  EXPECT_NEAR(r.x, 2.8, 1e-4);
  EXPECT_NEAR(r.value, 0.2, 1e-7);
}

TEST(IntegrateTrapezoid, IntegratesPolynomialAccurately) {
  const double v = u::integrate_trapezoid(
      [](double x) { return 3.0 * x * x; }, 0.0, 2.0, 2048);
  EXPECT_NEAR(v, 8.0, 1e-4);
}

TEST(IntegrateTrapezoid, ExactForLinearIntegrand) {
  const double v =
      u::integrate_trapezoid([](double x) { return 2.0 * x; }, 0.0, 3.0, 1);
  EXPECT_DOUBLE_EQ(v, 9.0);
}

TEST(Linspace, EndpointsAndSpacing) {
  const auto xs = u::linspace(0.0, 1.0, 5);
  ASSERT_EQ(xs.size(), 5u);
  EXPECT_DOUBLE_EQ(xs.front(), 0.0);
  EXPECT_DOUBLE_EQ(xs.back(), 1.0);
  EXPECT_DOUBLE_EQ(xs[2], 0.5);
}

TEST(Logspace, LogEvenSpacing) {
  const auto xs = u::logspace(1e-3, 1e3, 7);
  ASSERT_EQ(xs.size(), 7u);
  EXPECT_NEAR(xs[0], 1e-3, 1e-12);
  EXPECT_NEAR(xs[3], 1.0, 1e-9);
  EXPECT_NEAR(xs[6], 1e3, 1e-6);
}

TEST(Logspace, RejectsNonPositiveBounds) {
  EXPECT_THROW(u::logspace(0.0, 1.0, 4), u::Error);
}

TEST(InterpLinear, InterpolatesAndClamps) {
  const std::vector<double> xs{0.0, 1.0, 2.0};
  const std::vector<double> ys{0.0, 10.0, 40.0};
  EXPECT_DOUBLE_EQ(u::interp_linear(xs, ys, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(u::interp_linear(xs, ys, 1.5), 25.0);
  EXPECT_DOUBLE_EQ(u::interp_linear(xs, ys, -5.0), 0.0);
  EXPECT_DOUBLE_EQ(u::interp_linear(xs, ys, 9.0), 40.0);
}

TEST(ApproxEqual, RelativeAndAbsolute) {
  EXPECT_TRUE(u::approx_equal(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(u::approx_equal(1.0, 1.001));
  EXPECT_TRUE(u::approx_equal(0.0, 1e-12, 1e-9, 1e-9));
}

// Property sweep: bisection always converges to the analytic root of
// x^3 - c over a range of c.
class BisectCubeRoot : public ::testing::TestWithParam<double> {};

TEST_P(BisectCubeRoot, MatchesCbrt) {
  const double c = GetParam();
  const auto r =
      u::bisect([c](double x) { return x * x * x - c; }, 0.0, 10.0, 1e-12);
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(r->x, std::cbrt(c), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BisectCubeRoot,
                         ::testing::Values(0.001, 0.1, 1.0, 8.0, 27.0, 512.0));
