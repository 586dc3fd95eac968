// Simulated annealing baseline: determinism, budget accounting, and the
// "never worse than its own starting point" sanity property.

#include <gtest/gtest.h>

#include "flexopt/core/bbc.hpp"
#include "flexopt/core/sa.hpp"
#include "flexopt/gen/cruise_control.hpp"
#include "helpers.hpp"

namespace flexopt {
namespace {

AnalysisOptions fast_analysis() {
  AnalysisOptions o;
  o.scheduler.placement = Placement::Asap;
  return o;
}

TEST(Sa, RespectsEvaluationBudget) {
  const Application app = build_cruise_controller();
  const BusParams params = cruise_controller_params();
  CostEvaluator evaluator(app, params, fast_analysis());
  SaOptions options;
  options.max_evaluations = 60;
  const OptimizationOutcome outcome = optimize_sa(evaluator, testing::single_bus(), 0, options);
  EXPECT_LE(outcome.evaluations, 60 + 1);
  EXPECT_EQ(outcome.algorithm, "SA");
}

TEST(Sa, DeterministicForSameSeed) {
  const Application app = build_cruise_controller();
  const BusParams params = cruise_controller_params();
  SaOptions options;
  options.max_evaluations = 80;
  options.seed = 99;
  CostEvaluator e1(app, params, fast_analysis());
  CostEvaluator e2(app, params, fast_analysis());
  const OptimizationOutcome a = optimize_sa(e1, testing::single_bus(), 0, options);
  const OptimizationOutcome b = optimize_sa(e2, testing::single_bus(), 0, options);
  EXPECT_DOUBLE_EQ(a.cost.value, b.cost.value);
  EXPECT_EQ(a.config, b.config);
}

TEST(Sa, LargerBudgetNeverHurts) {
  const Application app = build_cruise_controller();
  const BusParams params = cruise_controller_params();
  SaOptions small;
  small.max_evaluations = 40;
  small.seed = 3;
  SaOptions large = small;
  large.max_evaluations = 240;
  CostEvaluator e1(app, params, fast_analysis());
  CostEvaluator e2(app, params, fast_analysis());
  const OptimizationOutcome a = optimize_sa(e1, testing::single_bus(), 0, small);
  const OptimizationOutcome b = optimize_sa(e2, testing::single_bus(), 0, large);
  EXPECT_LE(b.cost.value, a.cost.value + 1e-9);
}

TEST(Sa, BeatsOrMatchesBbcGivenBudget) {
  const Application app = build_cruise_controller();
  const BusParams params = cruise_controller_params();
  CostEvaluator bbc_eval(app, params, fast_analysis());
  BbcOptions bbc_options;
  bbc_options.max_sweep_points = 24;
  const OptimizationOutcome bbc = optimize_bbc(bbc_eval, testing::single_bus(), 0, bbc_options);

  CostEvaluator sa_eval(app, params, fast_analysis());
  SaOptions options;
  options.max_evaluations = 400;
  options.seed = 11;
  const OptimizationOutcome sa = optimize_sa(sa_eval, testing::single_bus(), 0, options);
  // SA explores a superset of BBC's space (slot counts, lengths, FrameIDs);
  // with a reasonable budget it should not lose to the basic config.
  EXPECT_LE(sa.cost.value, bbc.cost.value + 1e-9);
}

TEST(Sa, ReproducedConfigMatchesReportedCost) {
  const Application app = build_cruise_controller();
  const BusParams params = cruise_controller_params();
  CostEvaluator evaluator(app, params, fast_analysis());
  SaOptions options;
  options.max_evaluations = 120;
  const OptimizationOutcome outcome = optimize_sa(evaluator, testing::single_bus(), 0, options);
  ASSERT_LT(outcome.cost.value, kInvalidConfigCost);
  CostEvaluator fresh(app, params, fast_analysis());
  const auto eval = fresh.evaluate(SystemConfig::single(outcome.config));
  ASSERT_TRUE(eval.valid);
  EXPECT_DOUBLE_EQ(eval.cost.value, outcome.cost.value);
}

}  // namespace
}  // namespace flexopt
