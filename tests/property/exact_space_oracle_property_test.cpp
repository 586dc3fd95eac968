// Differential oracle lane for the exact DYN exploration: the production
// engine (explore_dyn_schedule_space — one flat frontier, lazy per-FrameID
// readiness branching) against the sharded, mask-enumerating reference in
// tests/exact_space_oracle.hpp.  Both must agree bit for bit on fallback,
// per-message worst completions, explored and merged states and
// transitions, on every FlexRay cluster of
//  * the 14 systems of bench_exact (the Section 7 fig9 population at 2..5
//    nodes and the 2..4-cluster gateway chains, two of each), and
//  * every scenario of specs/multicluster.campaign,
// under the default options and under option sets the default workloads
// never reach: tiny dominance-sweep limits (frontiers above the limit,
// where only hash groups within the limit are swept), no dominance
// pruning, a tiny branch cap and state budget (the two abort paths) and a
// two-hyper-period release window.  Each cluster's inputs are its minimal
// start configuration and the converged holistic release jitters.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "exact_space_oracle.hpp"
#include "flexopt/analysis/multicluster.hpp"
#include "flexopt/analysis/system_analysis.hpp"
#include "flexopt/campaign/campaign.hpp"
#include "flexopt/campaign/spec_format.hpp"
#include "flexopt/core/config_builder.hpp"
#include "flexopt/gen/scenario.hpp"
#include "flexopt/gen/synthetic.hpp"
#include "flexopt/model/system_model.hpp"

namespace flexopt {
namespace {

struct Variant {
  const char* name;
  ExactOptions options;
};

/// The option sets of the lane.  Frontiers above a tiny sweep limit, or
/// without pruning, grow until the budget stops them, and two
/// hyper-periods double the exploration, so those variants run on a
/// smaller budget than the default (the lane also runs under sanitizers).
std::vector<Variant> variants() {
  constexpr std::uint64_t kWideBudget = 1u << 10;
  std::vector<Variant> out;
  out.push_back({"default", ExactOptions{}});
  for (const auto& [name, limit] : {std::pair{"sweep-limit-1", 1u}, std::pair{"sweep-limit-2", 2u},
                                    std::pair{"sweep-limit-4", 4u}}) {
    ExactOptions o;
    o.dominance_sweep_limit = limit;
    o.max_states = kWideBudget;
    out.push_back({name, o});
  }
  ExactOptions unpruned;
  unpruned.prune_dominated = false;
  unpruned.max_states = kWideBudget;
  out.push_back({"no-dominance", unpruned});
  ExactOptions narrow;
  narrow.max_branch_messages = 2;
  out.push_back({"branch-cap-2", narrow});
  ExactOptions budget;
  budget.max_states = 6;
  out.push_back({"max-states-6", budget});
  ExactOptions two_hp;
  two_hp.hyperperiods = 2;
  two_hp.max_states = 1u << 13;
  out.push_back({"hyperperiods-2", two_hp});
  return out;
}

/// What the lane saw, so a lane that silently stopped exercising a path
/// fails loudly.
struct Tally {
  int explorations = 0;
  int explored = 0;       ///< fallback None
  int budget = 0;         ///< BudgetExceeded (either abort path)
  int multi_state = 0;    ///< explorations whose frontier ever held > 1 state
  int branching = 0;      ///< more transitions than explored states
  int systems = 0;
  int skipped = 0;
};

void compare_cluster(const BusLayout& layout, const std::vector<Time>& jitter, Time horizon,
                     const std::string& where, Tally& tally) {
  for (const Variant& v : variants()) {
    const std::string label = where + " [" + v.name + "]";
    const ScheduleSpaceResult got =
        explore_dyn_schedule_space(layout, jitter, horizon, v.options);
    const ScheduleSpaceResult want =
        testing::exact_space_oracle(layout, jitter, horizon, v.options);
    EXPECT_EQ(got.fallback, want.fallback) << label;
    EXPECT_EQ(got.worst_completion, want.worst_completion) << label;
    EXPECT_EQ(got.explored_states, want.explored_states) << label;
    EXPECT_EQ(got.merged_states, want.merged_states) << label;
    EXPECT_EQ(got.transitions, want.transitions) << label;
    ++tally.explorations;
    if (want.fallback == ExactFallback::None) ++tally.explored;
    if (want.fallback == ExactFallback::BudgetExceeded) ++tally.budget;
    if (want.merged_states > 0) ++tally.multi_state;
    if (want.transitions > want.explored_states) ++tally.branching;
  }
}

/// Explores every FlexRay cluster of `app` under its minimal start
/// configuration with the converged holistic jitters.
void compare_system(const Application& app, const BusParams& params, const std::string& where,
                    Tally& tally) {
  auto model = SystemModel::build(std::make_shared<const Application>(app));
  ASSERT_TRUE(model.ok()) << where << ": " << model.error().message;
  SystemConfig config;
  for (std::size_t c = 0; c < model.value().cluster_count(); ++c) {
    StartConfig start = minimal_start_config(*model.value().cluster_app(c), params);
    if (!start.bounds.feasible()) {
      ++tally.skipped;
      return;
    }
    // A traffic-less cluster gets one idle minislot, so that its bus cycle
    // is not empty and the other clusters can be analysed.
    if (start.config.static_slot_count == 0 && start.config.minislot_count == 0) {
      start.config.minislot_count = 1;
    }
    config.clusters.push_back(ClusterConfig::flexray_bus(start.config));
  }
  auto layouts = build_system_layouts(model.value(), params, config);
  if (!layouts.ok()) {
    ++tally.skipped;
    return;
  }
  const AnalysisOptions options;
  auto holistic = analyze_multicluster(model.value(), layouts.value(), options);
  ASSERT_TRUE(holistic.ok()) << where << ": " << holistic.error().message;
  ++tally.systems;
  for (std::size_t c = 0; c < model.value().cluster_count(); ++c) {
    const auto horizon = analysis_horizon(*model.value().cluster_app(c), options);
    ASSERT_TRUE(horizon.ok()) << where;
    compare_cluster(layouts.value()[c].flexray(), holistic.value().clusters[c].message_jitter,
                    horizon.value(), where + " cluster " + std::to_string(c), tally);
  }
}

BusParams section7_params() {
  BusParams params;
  params.gd_bit = 100;
  params.gd_macrotick = timeunits::us(1);
  params.gd_minislot = timeunits::us(5);
  return params;
}

void print(const char* lane, const Tally& t) {
  std::cout << lane << ": " << t.systems << " systems (" << t.skipped << " skipped), "
            << t.explorations << " explorations: " << t.explored << " explored, "
            << t.budget << " budget fallbacks, " << t.multi_state << " merging, "
            << t.branching << " branching\n";
}

void expect_exercised(const Tally& t) {
  EXPECT_GT(t.explored, 0);
  EXPECT_GT(t.budget, 0);
  EXPECT_GT(t.multi_state, 0);
  EXPECT_GT(t.branching, 0);
}

TEST(ExactSpaceOracleProperty, BenchExactPopulation) {
  const BusParams params = section7_params();
  Tally tally;
  for (int nodes = 2; nodes <= 5; ++nodes) {
    for (int index = 0; index < 2; ++index) {
      SyntheticSpec spec;
      spec.nodes = nodes;
      spec.deadline_factor = 0.7;
      spec.seed = 1000u * static_cast<std::uint64_t>(nodes) + static_cast<std::uint64_t>(index);
      auto app = generate_synthetic(spec, params);
      ASSERT_TRUE(app.ok()) << app.error().message;
      compare_system(app.value(), params,
                     "fig9/n" + std::to_string(nodes) + "#" + std::to_string(index), tally);
    }
  }
  for (int clusters = 2; clusters <= 4; ++clusters) {
    for (int index = 0; index < 2; ++index) {
      ScenarioSpec spec;
      spec.topology = Topology::MultiCluster;
      spec.traffic = TrafficMix::DynOnly;
      spec.clusters = clusters;
      spec.inter_cluster_share = 0.25;
      spec.base.nodes = clusters * 2;
      spec.base.tasks_per_node = 4;
      spec.base.tasks_per_graph = 4;
      spec.base.deadline_factor = 2.0;
      spec.base.seed = static_cast<std::uint64_t>(1000 * clusters + index);
      auto app = generate_scenario(spec, params);
      ASSERT_TRUE(app.ok()) << app.error().message;
      compare_system(app.value(), params,
                     "mc/c" + std::to_string(clusters) + "#" + std::to_string(index), tally);
    }
  }
  print("bench_exact population", tally);
  EXPECT_EQ(tally.systems, 14);
  expect_exercised(tally);
}

TEST(ExactSpaceOracleProperty, MulticlusterCampaignScenarios) {
  std::ifstream in(std::string(FLEXOPT_SOURCE_DIR) + "/specs/multicluster.campaign");
  ASSERT_TRUE(in) << "cannot open specs/multicluster.campaign";
  std::stringstream text;
  text << in.rdbuf();
  auto spec = parse_campaign_text(text.str());
  ASSERT_TRUE(spec.ok()) << spec.error().message;
  auto plans = expand_grid(spec.value());
  ASSERT_TRUE(plans.ok()) << plans.error().message;
  // The campaign runner's bus parameters.
  const BusParams params;
  Tally tally;
  for (const ScenarioPlan& plan : plans.value()) {
    auto app = generate_scenario(plan.scenario, params);
    ASSERT_TRUE(app.ok()) << app.error().message;
    compare_system(app.value(), params, "multicluster.campaign#" + std::to_string(plan.index),
                   tally);
  }
  print("multicluster.campaign", tally);
  EXPECT_EQ(tally.systems, static_cast<int>(plans.value().size()));
  expect_exercised(tally);
}

}  // namespace
}  // namespace flexopt
