// BBC (Fig. 5): minimal ST segment, criticality FrameIDs, DYN sweep.

#include <gtest/gtest.h>

#include "flexopt/core/bbc.hpp"
#include "flexopt/core/config_builder.hpp"
#include "flexopt/gen/cruise_control.hpp"
#include "flexopt/gen/synthetic.hpp"
#include "helpers.hpp"

namespace flexopt {
namespace {

AnalysisOptions fast_analysis() {
  AnalysisOptions o;
  o.scheduler.placement = Placement::Asap;
  return o;
}

TEST(Bbc, FindsScheduleableConfigOnSmallSystem) {
  SyntheticSpec spec;
  spec.nodes = 2;
  spec.seed = 42;
  BusParams params;
  params.gd_minislot = timeunits::us(5);
  auto app = generate_synthetic(spec, params);
  ASSERT_TRUE(app.ok());
  CostEvaluator evaluator(app.value(), params, fast_analysis());
  BbcOptions options;
  options.max_sweep_points = 24;
  const OptimizationOutcome outcome = optimize_bbc(evaluator, testing::single_bus(), 0, options);
  EXPECT_GT(outcome.evaluations, 0);
  EXPECT_LT(outcome.cost.value, kInvalidConfigCost);
  // The produced config uses the minimal static structure of Fig. 5.
  const auto senders = st_sender_nodes(app.value());
  EXPECT_EQ(outcome.config.static_slot_count, static_cast<int>(senders.size()));
  EXPECT_EQ(outcome.config.static_slot_len, min_static_slot_len(app.value(), params));
}

TEST(Bbc, ProducedConfigIsValidAndReproducible) {
  SyntheticSpec spec;
  spec.nodes = 3;
  spec.seed = 7;
  BusParams params;
  params.gd_minislot = timeunits::us(5);
  auto app = generate_synthetic(spec, params);
  ASSERT_TRUE(app.ok());
  CostEvaluator evaluator(app.value(), params, fast_analysis());
  BbcOptions options;
  options.max_sweep_points = 16;
  const OptimizationOutcome outcome = optimize_bbc(evaluator, testing::single_bus(), 0, options);
  ASSERT_LT(outcome.cost.value, kInvalidConfigCost);
  // Re-evaluating the chosen config reproduces the reported cost.
  CostEvaluator fresh(app.value(), params, fast_analysis());
  const auto eval = fresh.evaluate(SystemConfig::single(outcome.config));
  ASSERT_TRUE(eval.valid);
  EXPECT_DOUBLE_EQ(eval.cost.value, outcome.cost.value);
}

TEST(Bbc, EvaluationCountMatchesSweepResolution) {
  const Application app = build_cruise_controller();
  const BusParams params = cruise_controller_params();
  CostEvaluator evaluator(app, params, fast_analysis());
  BbcOptions coarse;
  coarse.max_sweep_points = 8;
  const auto few = optimize_bbc(evaluator, testing::single_bus(), 0, coarse);
  CostEvaluator evaluator2(app, params, fast_analysis());
  BbcOptions fine;
  fine.max_sweep_points = 32;
  const auto many = optimize_bbc(evaluator2, testing::single_bus(), 0, fine);
  EXPECT_GT(many.evaluations, few.evaluations);
  // A finer sweep can only improve (or match) the best cost found.
  EXPECT_LE(many.cost.value, few.cost.value + 1e-9);
}

TEST(Bbc, ExplicitStrideIsHonoured) {
  const Application app = build_cruise_controller();
  const BusParams params = cruise_controller_params();
  CostEvaluator evaluator(app, params, fast_analysis());
  BbcOptions options;
  options.dyn_stride_minislots = 500;
  const auto outcome = optimize_bbc(evaluator, testing::single_bus(), 0, options);
  const DynBounds bounds =
      dyn_segment_bounds(app, params,
                         static_cast<Time>(outcome.config.static_slot_count) *
                             outcome.config.static_slot_len);
  const long expected = (bounds.max_minislots - bounds.min_minislots) / 500 + 1;
  EXPECT_EQ(outcome.evaluations, expected);
}

}  // namespace
}  // namespace flexopt
