// DYN segment length search: exhaustive vs curve fitting (Fig. 8).  The
// curve-fit strategy must find configurations close to the exhaustive
// optimum with far fewer full analyses.

#include <gtest/gtest.h>

#include "flexopt/core/config_builder.hpp"
#include "flexopt/core/dyn_search.hpp"
#include "flexopt/gen/cruise_control.hpp"
#include "helpers.hpp"

namespace flexopt {
namespace {

struct SearchFixture {
  Application app = build_cruise_controller();
  BusParams params = cruise_controller_params();
  AnalysisOptions analysis;
  BusConfig base;
  DynBounds bounds;

  SearchFixture() {
    analysis.scheduler.placement = Placement::Asap;
    base.frame_id = assign_frame_ids_by_criticality(app, params);
    const auto senders = st_sender_nodes(app);
    base.static_slot_count = static_cast<int>(senders.size());
    base.static_slot_len = min_static_slot_len(app, params);
    base.static_slot_owner = senders;
    bounds = dyn_segment_bounds(
        app, params, static_cast<Time>(base.static_slot_count) * base.static_slot_len);
    if (!bounds.feasible()) throw std::runtime_error("fixture bounds");
  }
};

TEST(DynSearch, ExhaustiveFindsAValidLength) {
  SearchFixture f;
  CostEvaluator evaluator(f.app, f.params, f.analysis);
  ExhaustiveDynOptions options;
  options.max_sweep_points = 48;
  ExhaustiveDynSearch search(options);
  const DynSearchResult r =
      search.search(evaluator, testing::single_bus(), 0, f.base,
                    f.bounds.min_minislots, f.bounds.max_minislots);
  EXPECT_TRUE(r.exact);
  EXPECT_GE(r.minislots, f.bounds.min_minislots);
  EXPECT_LE(r.minislots, f.bounds.max_minislots);
  EXPECT_LT(r.cost.value, kInvalidConfigCost);
}

TEST(DynSearch, CurveFitUsesFarFewerEvaluations) {
  SearchFixture f;

  CostEvaluator exhaustive_eval(f.app, f.params, f.analysis);
  ExhaustiveDynOptions eopt;
  eopt.max_sweep_points = 64;
  ExhaustiveDynSearch exhaustive(eopt);
  const DynSearchResult ee =
      exhaustive.search(exhaustive_eval, testing::single_bus(), 0, f.base,
                        f.bounds.min_minislots, f.bounds.max_minislots);
  const long ee_evals = exhaustive_eval.evaluations();

  CostEvaluator cf_eval(f.app, f.params, f.analysis);
  CurveFitDynSearch curve_fit;
  const DynSearchResult cf =
      curve_fit.search(cf_eval, testing::single_bus(), 0, f.base,
                       f.bounds.min_minislots, f.bounds.max_minislots);
  const long cf_evals = cf_eval.evaluations();

  ASSERT_TRUE(ee.exact);
  ASSERT_TRUE(cf.exact);
  EXPECT_LT(cf_evals, ee_evals);
  // Both find schedulable lengths here; costs must be reasonably close
  // (the paper reports < 0.5% deviation; allow slack for the scaled-down
  // sweep resolution).
  if (ee.cost.schedulable) {
    EXPECT_TRUE(cf.cost.schedulable);
  }
}

TEST(DynSearch, CurveFitReturnsExactCostForChosenPoint) {
  SearchFixture f;
  CostEvaluator evaluator(f.app, f.params, f.analysis);
  CurveFitDynSearch search;
  const DynSearchResult r =
      search.search(evaluator, testing::single_bus(), 0, f.base,
                    f.bounds.min_minislots, f.bounds.max_minislots);
  ASSERT_TRUE(r.exact);
  // Re-analysing the chosen point reproduces the reported cost exactly —
  // i.e. the result never reports an interpolated value.
  BusConfig probe = f.base;
  probe.minislot_count = r.minislots;
  CostEvaluator fresh(f.app, f.params, f.analysis);
  const auto eval = fresh.evaluate(SystemConfig::single(probe));
  ASSERT_TRUE(eval.valid);
  EXPECT_DOUBLE_EQ(eval.cost.value, r.cost.value);
}

TEST(DynSearch, DegenerateRangeSinglePoint) {
  SearchFixture f;
  CostEvaluator evaluator(f.app, f.params, f.analysis);
  CurveFitDynSearch search;
  const int x = f.bounds.min_minislots;
  const DynSearchResult r = search.search(evaluator, testing::single_bus(), 0, f.base, x, x);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.minislots, x);
}

TEST(DynSearch, NmaxBoundsIterationsOnHopelessSystems) {
  // Overload the bus: shrink the period so no DYN length is schedulable.
  SearchFixture f;
  Application tight = build_cruise_controller();
  for (std::uint32_t t = 0; t < tight.task_count(); ++t) {
    tight.set_task_wcet(static_cast<TaskId>(t), timeunits::ms(6));
  }
  ASSERT_TRUE(tight.finalize().ok());
  CostEvaluator evaluator(tight, f.params, f.analysis);
  CurveFitDynOptions options;
  options.n_max = 3;
  CurveFitDynSearch search(options);
  const DynSearchResult r =
      search.search(evaluator, testing::single_bus(), 0, f.base,
                    f.bounds.min_minislots, f.bounds.max_minislots);
  EXPECT_FALSE(r.cost.schedulable);
  // Initial points + at most n_max refinements (each refinement may verify
  // one interpolated candidate and add one point).
  EXPECT_LE(evaluator.evaluations(), 5 + 2 * 3 + 1);
}

}  // namespace
}  // namespace flexopt
