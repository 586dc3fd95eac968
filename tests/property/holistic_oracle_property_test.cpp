// Differential oracle lane: analyze_system — the production holistic fixed
// point — against the Jacobi reference in tests/jacobi_oracle.hpp, bit for
// bit (completions, jitters, cost, convergence), over 250 seeded systems:
//
//  * 4 single-cluster topology families x 40 systems, each analysed at its
//    minimal start configuration and along a 5-move SA walk;
//  * 50 gateway-connected 2-4-cluster systems, every FlexRay cluster
//    analysed under the external relay jitters of the cross-cluster fixed
//    point;
//  * 40 single-cluster systems under DYN response caps, the exact
//    backend's hook (explored worst-case finishes where the exploration
//    runs, synthetic caps where it falls back).
//
// The equality holds whenever the oracle converges and no FPS recurrence
// in either run stops at fps_response_time's iteration cap (see
// jacobi_oracle.hpp).  Every excluded case is counted and printed to the
// test log, so nothing is dropped silently.

#include <gtest/gtest.h>

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "flexopt/analysis/exact/schedule_space.hpp"
#include "flexopt/analysis/multicluster.hpp"
#include "flexopt/core/config_builder.hpp"
#include "flexopt/core/sa.hpp"
#include "flexopt/gen/scenario.hpp"
#include "flexopt/util/rng.hpp"
#include "jacobi_oracle.hpp"

namespace flexopt {
namespace {

constexpr int kSystemsPerFamily = 40;
constexpr int kWalkMoves = 5;
constexpr int kMulticlusterSystems = 50;
constexpr int kCappedSystems = 40;

/// Comparison bookkeeping shared by the three populations.
struct Tally {
  int compared = 0;
  int excluded = 0;
};

/// Compares one production analysis against the oracle on the same inputs.
void check_against_oracle(const BusLayout& layout, const std::string& label, Tally& tally,
                          std::span<const Time> external_task_jitter = {},
                          std::span<const Time> caps = {}) {
  const AnalysisOptions options;
  AnalysisWorkCounters arena_work;
  const auto arena = analyze_system(layout, options, &arena_work, external_task_jitter, caps);
  AnalysisWorkCounters oracle_work;
  AnalysisResult oracle;
  try {
    oracle = testing::jacobi_oracle(layout, options, &oracle_work, external_task_jitter, caps);
  } catch (const std::runtime_error& e) {
    EXPECT_FALSE(arena.ok()) << label << ": oracle failed (" << e.what()
                             << ") but analyze_system succeeded";
    return;
  }
  ASSERT_TRUE(arena.ok()) << label << ": " << arena.error().message;
  const AnalysisResult& got = arena.value();

  if (!oracle.converged || oracle_work.fps_cap_hits != 0 || arena_work.fps_cap_hits != 0) {
    ++tally.excluded;
    std::cout << "excluded " << label << ": oracle "
              << (oracle.converged ? "converged" : "hit the sweep cap") << ", fps cap hits "
              << oracle_work.fps_cap_hits << " (oracle) / " << arena_work.fps_cap_hits
              << " (analyze_system)\n";
    return;
  }
  ++tally.compared;
  EXPECT_EQ(got.converged, oracle.converged) << label;
  EXPECT_EQ(got.task_completion, oracle.task_completion) << label;
  EXPECT_EQ(got.message_completion, oracle.message_completion) << label;
  EXPECT_EQ(got.task_jitter, oracle.task_jitter) << label;
  EXPECT_EQ(got.message_jitter, oracle.message_jitter) << label;
  EXPECT_EQ(got.cost.value, oracle.cost.value) << label;
  EXPECT_EQ(got.cost.schedulable, oracle.cost.schedulable) << label;
  EXPECT_EQ(got.cost.unbounded_activities, oracle.cost.unbounded_activities) << label;
}

/// The lane must keep testing: most cases are comparable.
void expect_mostly_compared(const Tally& tally, const std::string& population) {
  std::cout << population << ": " << tally.compared << " compared, " << tally.excluded
            << " excluded\n";
  EXPECT_GT(tally.compared, 0) << population;
  EXPECT_GE(tally.compared, 9 * tally.excluded) << population;
}

ScenarioSpec single_cluster_spec(Topology topology, Rng& rng) {
  ScenarioSpec spec;
  spec.topology = topology;
  spec.traffic = TrafficMix::Mixed;
  SyntheticSpec& base = spec.base;
  base.nodes = static_cast<int>(rng.uniform_int(2, 6));
  base.tasks_per_graph = static_cast<int>(rng.uniform_int(2, 5));
  base.tasks_per_node = base.tasks_per_graph * static_cast<int>(rng.uniform_int(1, 2));
  base.tt_share = rng.uniform_real(0.2, 0.8);
  base.deadline_factor = rng.uniform_real(0.6, 1.2);
  base.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
  return spec;
}

void run_family(Topology topology) {
  const BusParams params;
  Rng rng(0x0ac1e000u + static_cast<std::uint64_t>(topology));
  Tally tally;
  for (int i = 0; i < kSystemsPerFamily; ++i) {
    const ScenarioSpec spec = single_cluster_spec(topology, rng);
    const std::string where = std::string(to_string(topology)) + " system " +
                              std::to_string(i) + " seed " + std::to_string(spec.base.seed);
    auto app_result = generate_scenario(spec, params);
    ASSERT_TRUE(app_result.ok()) << where << ": " << app_result.error().message;
    const Application& app = app_result.value();
    const StartConfig start = minimal_start_config(app, params);
    if (!start.bounds.feasible()) continue;

    BusConfig config = start.config;
    Rng move_rng(spec.base.seed ^ 0x9e3779b97f4a7c15ull);
    for (int step = 0; step <= kWalkMoves; ++step) {
      if (step > 0) {
        bool moved = false;
        for (int attempt = 0; attempt < 8 && !moved; ++attempt) {
          moved = random_neighbour_move(config, app, params, move_rng, start.st_senders,
                                        start.bounds.min_minislots, SpecLimits::kMaxMinislots);
        }
        if (!moved) break;
      }
      auto layout = BusLayout::build(app, params, config);
      if (!layout.ok()) continue;
      check_against_oracle(layout.value(), where + " step " + std::to_string(step), tally);
    }
  }
  expect_mostly_compared(tally, to_string(topology));
}

TEST(HolisticOracleProperty, RandomDagMatchesJacobiOracle) { run_family(Topology::RandomDag); }

TEST(HolisticOracleProperty, PipelineMatchesJacobiOracle) { run_family(Topology::Pipeline); }

TEST(HolisticOracleProperty, FanInFanOutMatchesJacobiOracle) {
  run_family(Topology::FanInFanOut);
}

TEST(HolisticOracleProperty, GatewayHeavyMatchesJacobiOracle) {
  run_family(Topology::GatewayHeavy);
}

TEST(HolisticOracleProperty, MulticlusterExternalJitterMatchesJacobiOracle) {
  const BusParams params;
  Rng rng(0x0ac1e0c1u);
  Tally tally;
  int analysed_systems = 0;
  for (int i = 0; i < kMulticlusterSystems; ++i) {
    ScenarioSpec spec;
    spec.topology = Topology::MultiCluster;
    spec.traffic = TrafficMix::DynOnly;
    spec.clusters = static_cast<int>(rng.uniform_int(2, 4));
    spec.inter_cluster_share = rng.uniform_real(0.1, 0.5);
    spec.base.nodes = spec.clusters * static_cast<int>(rng.uniform_int(1, 2));
    spec.base.tasks_per_graph = 4;
    spec.base.tasks_per_node = 4 * static_cast<int>(rng.uniform_int(1, 2));
    spec.base.deadline_factor = rng.uniform_real(1.0, 2.5);
    spec.base.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
    const std::string where =
        "multicluster system " + std::to_string(i) + " seed " + std::to_string(spec.base.seed);

    auto app = generate_scenario(spec, params);
    ASSERT_TRUE(app.ok()) << where << ": " << app.error().message;
    auto model_result =
        SystemModel::build(std::make_shared<const Application>(std::move(app).value()));
    ASSERT_TRUE(model_result.ok()) << where << ": " << model_result.error().message;
    const SystemModel& model = model_result.value();
    SystemConfig config;
    for (std::size_t c = 0; c < model.cluster_count(); ++c) {
      const Application& cluster_app = *model.cluster_app(c);
      config.clusters.push_back(minimal_start_cluster_config(
          cluster_app, params, cluster_app.cluster_backend(ClusterId{0})));
    }
    auto layouts = build_system_layouts(model, params, config);
    if (!layouts.ok()) continue;  // a cluster without traffic has no bus cycle
    auto system = analyze_multicluster(model, layouts.value(), AnalysisOptions{});
    ASSERT_TRUE(system.ok()) << where << ": " << system.error().message;
    ++analysed_systems;

    // The relay jitters of the cross-cluster fixed point's final state.
    std::vector<std::vector<Time>> external(model.cluster_count());
    for (std::size_t c = 0; c < model.cluster_count(); ++c) {
      external[c].assign(model.cluster_app(c)->task_count(), 0);
    }
    for (const RelayLink& link : model.relay_links()) {
      const AnalysisResult& upstream = system.value().clusters[link.upstream_cluster];
      external[link.downstream_cluster][index_of(link.downstream_send)] =
          upstream.task_completion[index_of(link.upstream_recv)];
    }
    for (std::size_t c = 0; c < model.cluster_count(); ++c) {
      if (layouts.value()[c].kind() != ClusterBackendKind::FlexRay) continue;
      const std::string label = where + " cluster " + std::to_string(c);
      check_against_oracle(layouts.value()[c].flexray(), label, tally, external[c]);
    }
  }
  EXPECT_GE(analysed_systems, kMulticlusterSystems / 2);
  expect_mostly_compared(tally, "multicluster");
}

TEST(HolisticOracleProperty, DynCapsMatchJacobiOracle) {
  const BusParams params;
  Rng rng(0x0ac1e0cau);
  Tally tally;
  int explored = 0;
  for (int i = 0; i < kCappedSystems; ++i) {
    const auto topology = static_cast<Topology>(rng.uniform_int(0, 3));
    const ScenarioSpec spec = single_cluster_spec(topology, rng);
    const std::string where =
        "capped system " + std::to_string(i) + " seed " + std::to_string(spec.base.seed);
    auto app_result = generate_scenario(spec, params);
    ASSERT_TRUE(app_result.ok()) << where << ": " << app_result.error().message;
    const Application& app = app_result.value();
    const StartConfig start = minimal_start_config(app, params);
    if (!start.bounds.feasible()) continue;
    BusConfig config = start.config;
    config.minislot_count = (start.bounds.min_minislots + start.bounds.max_minislots) / 2;
    auto layout = BusLayout::build(app, params, config);
    if (!layout.ok()) continue;
    const AnalysisOptions options;
    auto holistic = analyze_system(layout.value(), options);
    if (!holistic.ok()) continue;

    std::vector<Time> caps;
    bool finite_dyn_jitter = holistic.value().converged;
    for (std::uint32_t m = 0; m < app.message_count(); ++m) {
      if (app.messages()[m].cls == MessageClass::Dynamic &&
          is_infinite(holistic.value().message_jitter[m])) {
        finite_dyn_jitter = false;
      }
    }
    if (finite_dyn_jitter) {
      ExactOptions exact;
      exact.jobs = 1;
      const ScheduleSpaceResult space =
          explore_dyn_schedule_space(layout.value(), holistic.value().message_jitter,
                                     analysis_horizon(app, options).value(), exact);
      if (space.fallback == ExactFallback::None) {
        caps = space.worst_completion;
        ++explored;
      }
    }
    if (caps.empty()) {
      // Synthetic caps: half of every finite holistic DYN bound.
      caps.assign(app.message_count(), kTimeInfinity);
      for (std::uint32_t m = 0; m < app.message_count(); ++m) {
        const Time bound = holistic.value().message_completion[m];
        if (app.messages()[m].cls == MessageClass::Dynamic && !is_infinite(bound)) {
          caps[m] = bound / 2;
        }
      }
    }
    check_against_oracle(layout.value(), where, tally, {}, caps);
  }
  std::cout << "capped: " << explored << " systems with explored caps\n";
  EXPECT_GT(explored, 0);
  expect_mostly_compared(tally, "capped");
}

}  // namespace
}  // namespace flexopt
