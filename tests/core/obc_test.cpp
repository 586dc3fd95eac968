// OBC heuristic (Fig. 6) with both DYN strategies.

#include <gtest/gtest.h>

#include "flexopt/core/config_builder.hpp"
#include "flexopt/core/obc.hpp"
#include "flexopt/gen/cruise_control.hpp"
#include "flexopt/gen/synthetic.hpp"
#include "helpers.hpp"

namespace flexopt {
namespace {

// The CC feasibility split requires the paper's FPS-aware SCS placement
// (Fig. 2 line 11) — the library default.
AnalysisOptions fast_analysis() { return AnalysisOptions{}; }

TEST(Obc, CruiseControllerBecomesSchedulable) {
  const Application app = build_cruise_controller();
  const BusParams params = cruise_controller_params();
  CostEvaluator evaluator(app, params, fast_analysis());
  CurveFitDynSearch strategy;
  const OptimizationOutcome outcome = optimize_obc(evaluator, testing::single_bus(), 0, strategy);
  EXPECT_TRUE(outcome.feasible) << "cost=" << outcome.cost.value;
  EXPECT_LE(outcome.cost.value, 0.0);
  EXPECT_EQ(outcome.algorithm, "OBC-curve-fit");
}

TEST(Obc, ExhaustiveStrategyAlsoSchedulable) {
  const Application app = build_cruise_controller();
  const BusParams params = cruise_controller_params();
  CostEvaluator evaluator(app, params, fast_analysis());
  ExhaustiveDynOptions eopt;
  eopt.max_sweep_points = 32;
  ExhaustiveDynSearch strategy(eopt);
  const OptimizationOutcome outcome = optimize_obc(evaluator, testing::single_bus(), 0, strategy);
  EXPECT_TRUE(outcome.feasible);
  EXPECT_EQ(outcome.algorithm, "OBC-exhaustive");
}

TEST(Obc, ProducedConfigReproducesReportedCost) {
  const Application app = build_cruise_controller();
  const BusParams params = cruise_controller_params();
  CostEvaluator evaluator(app, params, fast_analysis());
  CurveFitDynSearch strategy;
  const OptimizationOutcome outcome = optimize_obc(evaluator, testing::single_bus(), 0, strategy);
  ASSERT_TRUE(outcome.feasible);
  CostEvaluator fresh(app, params, fast_analysis());
  const auto eval = fresh.evaluate(SystemConfig::single(outcome.config));
  ASSERT_TRUE(eval.valid);
  EXPECT_DOUBLE_EQ(eval.cost.value, outcome.cost.value);
}

TEST(Obc, ExploresMoreSlotsThanBbcWhenNeeded) {
  // OBC may enlarge the static segment beyond the per-sender minimum; at
  // minimum it never returns fewer slots than senders.
  const Application app = build_cruise_controller();
  const BusParams params = cruise_controller_params();
  CostEvaluator evaluator(app, params, fast_analysis());
  CurveFitDynSearch strategy;
  const OptimizationOutcome outcome = optimize_obc(evaluator, testing::single_bus(), 0, strategy);
  const auto senders = st_sender_nodes(app);
  EXPECT_GE(outcome.config.static_slot_count, static_cast<int>(senders.size()));
  EXPECT_EQ(outcome.config.static_slot_owner.size(),
            static_cast<std::size_t>(outcome.config.static_slot_count));
}

TEST(Obc, StopsAtFirstFeasibleConfiguration) {
  SyntheticSpec spec;
  spec.nodes = 2;
  spec.seed = 5;
  BusParams params;
  params.gd_minislot = timeunits::us(5);
  auto app = generate_synthetic(spec, params);
  ASSERT_TRUE(app.ok());
  CostEvaluator evaluator(app.value(), params, fast_analysis());
  CurveFitDynSearch strategy;
  ObcOptions options;
  options.max_extra_slots = 6;
  const OptimizationOutcome outcome =
      optimize_obc(evaluator, testing::single_bus(), 0, strategy, options);
  if (outcome.feasible) {
    // Termination on feasibility keeps evaluations modest: no more than a
    // couple of DYN searches' worth.
    EXPECT_LT(outcome.evaluations, 200);
  }
}

TEST(Obc, ArbitraryFrameIdsSupportedForAblation) {
  const Application app = build_cruise_controller();
  const BusParams params = cruise_controller_params();
  CostEvaluator evaluator(app, params, fast_analysis());
  CurveFitDynSearch strategy;
  ObcOptions options;
  options.criticality_frame_ids = false;
  const OptimizationOutcome outcome =
      optimize_obc(evaluator, testing::single_bus(), 0, strategy, options);
  EXPECT_LT(outcome.cost.value, kInvalidConfigCost);  // still analysable
}

}  // namespace
}  // namespace flexopt
