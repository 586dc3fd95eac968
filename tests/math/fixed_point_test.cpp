#include "flexopt/math/fixed_point.hpp"

#include <gtest/gtest.h>

namespace flexopt {
namespace {

TEST(FixedPoint, ConvergesOnClassicRecurrence) {
  // w = 3 + 2 * ceil(w / 10): converges at w = 5... check: f(5)=3+2=5.
  const auto f = [](Time t) { return 3 + 2 * ceil_div(t, 10); };
  const auto r = iterate_to_fixed_point(f, 1000);
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.value, 5);
}

TEST(FixedPoint, StartsFromZero) {
  const auto f = [](Time) { return Time{42}; };
  const auto r = iterate_to_fixed_point(f, 1000);
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.value, 42);
}

TEST(FixedPoint, DetectsDivergencePastHorizon) {
  const auto f = [](Time t) { return t + 10; };
  const auto r = iterate_to_fixed_point(f, 100);
  EXPECT_FALSE(r.converged);
  EXPECT_FALSE(r.capped);  // proven divergent, not stopped by the cap
  EXPECT_EQ(r.value, kTimeInfinity);
}

TEST(FixedPoint, ZeroFixedPoint) {
  const auto f = [](Time t) { return t; };  // f(0) == 0
  const auto r = iterate_to_fixed_point(f, 100);
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.value, 0);
}

TEST(FixedPoint, IterationCapGuards) {
  // Slowly growing function that would converge only after the cap.
  const auto f = [](Time t) { return t + 1; };
  const auto r = iterate_to_fixed_point(f, kTimeInfinity - 10, /*max_iterations=*/50);
  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(r.capped);
  EXPECT_EQ(r.iterations, 50);
}

// `iterations` counts evaluations of f on every exit path — the profiling
// counters depend on it never reporting 0 for work that did happen.

TEST(FixedPoint, IterationsCountedOnConvergence) {
  const auto f = [](Time t) { return 3 + 2 * ceil_div(t, 10); };
  const auto r = iterate_to_fixed_point(f, 1000);
  ASSERT_TRUE(r.converged);
  // 0 -> 3 -> 5 -> 5: three evaluations (the last confirms the fixed point).
  EXPECT_EQ(r.iterations, 3);
}

TEST(FixedPoint, IterationsCountedOnImmediateWrapDivergence) {
  // Saturating f that wraps below its argument on the very first call
  // (next < t path).  This used to report iterations == 0.
  const auto f = [](Time) { return Time{-1}; };
  const auto r = iterate_to_fixed_point(f, 1000);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.value, kTimeInfinity);
  EXPECT_EQ(r.iterations, 1);
}

TEST(FixedPoint, IterationsCountedOnImmediateHorizonOverrun) {
  const auto f = [](Time) { return Time{5000}; };
  const auto r = iterate_to_fixed_point(f, 1000);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 1);
}

TEST(FixedPoint, IterationsCountedOnLaterWrapDivergence) {
  // Grows for a few steps, then saturation makes it fall back.
  const auto f = [](Time t) { return t < 30 ? t + 10 : Time{0}; };
  const auto r = iterate_to_fixed_point(f, 1000);
  EXPECT_FALSE(r.converged);
  // 0 -> 10 -> 20 -> 30 -> wrap: four evaluations.
  EXPECT_EQ(r.iterations, 4);
}

TEST(FixedPoint, IterationsEqualCapWhenCapped) {
  const auto f = [](Time t) { return t + 1; };
  const auto r = iterate_to_fixed_point(f, kTimeInfinity - 10, /*max_iterations=*/50);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 50);
}

}  // namespace
}  // namespace flexopt
