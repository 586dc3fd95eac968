// Differential lane for the OBC-CF curve-fit search: CurveFitDynSearch
// (one incrementally updated grid table per search) against the plain
// full-rescan oracle in curve_fit_oracle.hpp, on the 112 systems of the
// Fig. 9 campaign population (specs/fig9.campaign).  Each system is
// searched from its minimal start configuration and then, reusing the
// strategy object as OBC's outer loop does, at the next static slot length.  Both
// sides run on fresh evaluators with FPS-impact placement, so the list
// scheduler's pruned candidate scoring shapes every analysed point.  The
// result (minislots, cost bits, schedulable flag) and the number of full
// analyses must match exactly.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "curve_fit_oracle.hpp"
#include "flexopt/campaign/spec_format.hpp"
#include "flexopt/core/config_builder.hpp"
#include "flexopt/gen/scenario.hpp"

namespace flexopt {
namespace {

struct Variant {
  const char* name;
  CurveFitDynOptions options;
};

/// The production defaults, and a variant with few initial points and a
/// long refinement so many searches pass the Newton degree cap into
/// piecewise-linear fits.
std::vector<Variant> variants() {
  CurveFitDynOptions long_refine;
  long_refine.initial_points = 3;
  long_refine.n_max = 14;
  long_refine.max_candidates = 48;
  return {{"default", CurveFitDynOptions{}}, {"long", long_refine}};
}

void expect_same(const DynSearchResult& got, const DynSearchResult& want,
                 const std::string& where) {
  EXPECT_EQ(got.minislots, want.minislots) << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.cost.value),
            std::bit_cast<std::uint64_t>(want.cost.value))
      << where << ": " << got.cost.value << " vs " << want.cost.value;
  EXPECT_EQ(got.cost.schedulable, want.cost.schedulable) << where;
  EXPECT_EQ(got.cost.unbounded_activities, want.cost.unbounded_activities) << where;
  EXPECT_EQ(got.exact, want.exact) << where;
}

TEST(CurveFitOracle, IncrementalGridMatchesFullRescanOnFig9Population) {
  std::ifstream in(std::string(FLEXOPT_SOURCE_DIR) + "/specs/fig9.campaign");
  ASSERT_TRUE(in);
  auto spec = parse_campaign(in);
  ASSERT_TRUE(spec.ok()) << spec.error().message;
  auto plans = expand_grid(spec.value());
  ASSERT_TRUE(plans.ok()) << plans.error().message;
  ASSERT_GE(plans.value().size(), 100u);

  const BusParams params{};
  AnalysisOptions analysis;
  analysis.scheduler.placement = Placement::MinimizeFpsImpact;
  const Time payload_step = SpecLimits::kPayloadStepBits * params.gd_bit;

  int systems = 0;
  int searches = 0;
  int long_searches = 0;  // 10+ analysed points: piecewise-linear fits
  for (const ScenarioPlan& plan : plans.value()) {
    auto app_result = generate_scenario(plan.scenario, params);
    ASSERT_TRUE(app_result.ok()) << app_result.error().message;
    const Application& app = app_result.value();
    const StartConfig start = minimal_start_config(app, params);
    if (!start.bounds.feasible()) continue;
    ++systems;

    for (const Variant& variant : variants()) {
      const std::string where = "scenario " + std::to_string(plan.index) + " seed " +
                                std::to_string(plan.scenario.base.seed) + " " + variant.name;
      CostEvaluator oracle_eval(app, params, analysis);
      CostEvaluator eval(app, params, analysis);
      CurveFitDynSearch search(variant.options);

      // The start configuration, cold.
      const BusConfig& first = start.config;
      const DynSearchResult want = testing::curve_fit_oracle_search(
          oracle_eval, first, start.bounds.min_minislots, start.bounds.max_minislots,
          variant.options);
      const DynSearchResult got =
          search.search(eval, SystemConfig::single(first), 0, first, start.bounds.min_minislots,
                        start.bounds.max_minislots);
      expect_same(got, want, where + " start");
      EXPECT_EQ(eval.evaluations(), oracle_eval.evaluations()) << where << " start";
      ++searches;
      if (oracle_eval.evaluations() >= 10) ++long_searches;
      if (!want.exact) continue;

      // The next slot length, reusing the same strategy object (its table
      // buffers carry over).
      BusConfig next = first;
      next.static_slot_len += payload_step;
      const DynBounds bounds = dyn_segment_bounds(
          app, params, static_cast<Time>(next.static_slot_count) * next.static_slot_len);
      if (!bounds.feasible()) continue;
      const long oracle_before = oracle_eval.evaluations();
      const DynSearchResult want2 = testing::curve_fit_oracle_search(
          oracle_eval, next, bounds.min_minislots, bounds.max_minislots, variant.options);
      const DynSearchResult got2 = search.search(eval, SystemConfig::single(next), 0, next,
                                                 bounds.min_minislots, bounds.max_minislots);
      expect_same(got2, want2, where + " next");
      EXPECT_EQ(eval.evaluations(), oracle_eval.evaluations()) << where << " next";
      ++searches;
      if (oracle_eval.evaluations() - oracle_before >= 10) ++long_searches;
    }
  }
  std::printf("curve-fit oracle: %d systems, %d searches, %d with 10+ analyses\n", systems,
              searches, long_searches);
  EXPECT_GE(systems, 100);
  EXPECT_GT(long_searches, 0);
}

}  // namespace
}  // namespace flexopt
