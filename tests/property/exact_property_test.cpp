// Exact-backend property lane (`ctest -R exact -L property`): across >= 25
// scenarios spanning single-cluster FlexRay, multi-cluster FlexRay and
// mixed FlexRay/TSN systems, the three-level sandwich holds for every
// analysable activity under the minimal start configuration:
//
//   netsim observed  <=  exact WCRT  <=  holistic WCRT
//
// (left: the simulator replays real schedules inside the explored
// behaviour space; right: the exact backend clamps to holistic by
// construction — both inequalities checked empirically here).  Plus:
// exact evaluation is bit-deterministic across evaluator worker counts
// (jobs 1 vs 8), so campaign results never depend on the thread schedule;
// and the accepted-but-ignored ExactOptions::jobs knob (1 vs 8) leaves the
// ExactClusterInfo records — states, merges, transitions, refined bounds —
// bit-identical across the same scenario breadth.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "flexopt/analysis/exact/exact_analysis.hpp"
#include "flexopt/analysis/multicluster.hpp"
#include "flexopt/core/config_builder.hpp"
#include "flexopt/core/evaluator.hpp"
#include "flexopt/gen/scenario.hpp"
#include "flexopt/netsim/netsim.hpp"
#include "flexopt/util/rng.hpp"

namespace flexopt {
namespace {

constexpr int kScenarios = 25;
constexpr int kMaxAttempts = 100;

BusParams lane_params() {
  BusParams params;
  params.gd_bit = 100;
  params.gd_macrotick = timeunits::us(1);
  params.gd_minislot = timeunits::us(5);
  return params;
}

/// Scenario `attempt` of the lane, cycling through the three families.
ScenarioSpec lane_spec(int attempt, Rng& rng) {
  ScenarioSpec spec;
  const int family = attempt % 3;
  if (family == 0) {
    // Single-cluster FlexRay, Section-7-style.
    spec.base.nodes = 2 + static_cast<int>(rng.uniform_int(0, 2));
    spec.base.deadline_factor = 0.7;
  } else {
    spec.topology = Topology::MultiCluster;
    spec.traffic = TrafficMix::DynOnly;
    spec.clusters = 2 + static_cast<int>(rng.uniform_int(0, 2));
    spec.inter_cluster_share = 0.25;
    spec.base.nodes = spec.clusters * 2;
    spec.base.tasks_per_node = 4;
    spec.base.tasks_per_graph = 4;
    spec.base.deadline_factor = 2.0;
    // Family 2 alternates FlexRay and TSN clusters (the mixed systems).
    if (family == 2) spec.backend = BackendMix::Mixed;
  }
  spec.base.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
  return spec;
}

/// Entry-wise `lhs <= rhs`; `rhs` may be infinite anywhere.
void expect_bounded_by(const std::vector<Time>& lhs, const std::vector<Time>& rhs,
                       int attempt, const char* what) {
  ASSERT_EQ(lhs.size(), rhs.size());
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    EXPECT_LE(lhs[i], rhs[i]) << "scenario " << attempt << " " << what << "[" << i << "]";
  }
}

TEST(ExactProperty, ObservedLeExactLeHolisticAcrossScenarios) {
  Rng rng(20260808);
  const BusParams params = lane_params();
  int analysed = 0;
  int mixed_analysed = 0;
  for (int attempt = 0; attempt < kMaxAttempts && analysed < kScenarios; ++attempt) {
    const ScenarioSpec spec = lane_spec(attempt, rng);
    auto app = generate_scenario(spec, params);
    if (!app.ok()) continue;
    auto built = SystemModel::build(std::make_shared<const Application>(std::move(app).value()));
    ASSERT_TRUE(built.ok()) << built.error().message;
    const SystemModel& model = built.value();

    SystemConfig config;
    bool feasible = true;
    for (std::size_t c = 0; c < model.cluster_count(); ++c) {
      const ClusterBackendKind backend =
          model.cluster_app(c)->cluster_backend(ClusterId{0});
      ClusterConfig cluster =
          minimal_start_cluster_config(*model.cluster_app(c), params, backend);
      if (cluster.kind == ClusterBackendKind::FlexRay) {
        const StartConfig start = minimal_start_config(*model.cluster_app(c), params);
        feasible = feasible && start.bounds.feasible();
      }
      config.clusters.push_back(std::move(cluster));
    }
    if (!feasible) continue;
    auto layouts = build_system_layouts(model, params, config);
    if (!layouts.ok()) continue;

    auto holistic = analyze_multicluster(model, layouts.value(), AnalysisOptions{});
    ASSERT_TRUE(holistic.ok()) << holistic.error().message;
    AnalysisOptions exact_options;
    exact_options.mode = AnalysisMode::Exact;
    auto exact = analyze_multicluster(model, layouts.value(), exact_options);
    ASSERT_TRUE(exact.ok()) << exact.error().message;
    ASSERT_EQ(exact.value().clusters.size(), holistic.value().clusters.size());

    // Right inequality: exact <= holistic per cluster, per activity; and
    // every cluster carries its ExactClusterInfo (fallbacks recorded).
    for (std::size_t c = 0; c < exact.value().clusters.size(); ++c) {
      const AnalysisResult& e = exact.value().clusters[c];
      ASSERT_NE(e.exact, nullptr) << "scenario " << attempt << " cluster " << c;
      expect_bounded_by(e.task_completion, holistic.value().clusters[c].task_completion,
                        attempt, "task");
      expect_bounded_by(e.message_completion,
                        holistic.value().clusters[c].message_completion, attempt, "message");
    }

    // Left inequality: replay on the simulator and check every observed
    // completion against the *exact* bounds (the tighter side).
    auto sim = simulate_network(model, layouts.value(), exact.value());
    ASSERT_TRUE(sim.ok()) << sim.error().message;
    const SoundnessReport verdict = check_soundness(model, exact.value(), sim.value());
    EXPECT_TRUE(verdict.sound) << "scenario " << attempt << ": "
                               << verdict.violations.size() << " observed > exact";
    EXPECT_EQ(sim.value().precedence_violations, 0u) << "scenario " << attempt;

    ++analysed;
    if (spec.backend == BackendMix::Mixed) ++mixed_analysed;
  }
  // The lane must actually exercise its advertised breadth.
  ASSERT_GE(analysed, kScenarios);
  EXPECT_GT(mixed_analysed, 0);
}

/// ExactOptions::jobs must not reach the results: for every scenario the
/// full ExactClusterInfo — engine counters AND refined bounds — is
/// bit-identical between jobs=1 and jobs=8, fallbacks included.
TEST(ExactProperty, ExplorationBitIdenticalAcrossJobCounts) {
  Rng rng(20260809);
  const BusParams params = lane_params();
  int analysed = 0;
  int multicluster_analysed = 0;
  for (int attempt = 0; attempt < kMaxAttempts && analysed < kScenarios; ++attempt) {
    const ScenarioSpec spec = lane_spec(attempt, rng);
    auto app = generate_scenario(spec, params);
    if (!app.ok()) continue;
    auto built = SystemModel::build(std::make_shared<const Application>(std::move(app).value()));
    ASSERT_TRUE(built.ok()) << built.error().message;
    const SystemModel& model = built.value();

    SystemConfig config;
    bool feasible = true;
    for (std::size_t c = 0; c < model.cluster_count(); ++c) {
      const ClusterBackendKind backend =
          model.cluster_app(c)->cluster_backend(ClusterId{0});
      ClusterConfig cluster =
          minimal_start_cluster_config(*model.cluster_app(c), params, backend);
      if (cluster.kind == ClusterBackendKind::FlexRay) {
        const StartConfig start = minimal_start_config(*model.cluster_app(c), params);
        feasible = feasible && start.bounds.feasible();
      }
      config.clusters.push_back(std::move(cluster));
    }
    if (!feasible) continue;
    auto layouts = build_system_layouts(model, params, config);
    if (!layouts.ok()) continue;

    AnalysisOptions sequential_options;
    sequential_options.mode = AnalysisMode::Exact;
    sequential_options.exact.jobs = 1;
    AnalysisOptions parallel_options = sequential_options;
    parallel_options.exact.jobs = 8;
    auto sequential = analyze_multicluster(model, layouts.value(), sequential_options);
    auto parallel = analyze_multicluster(model, layouts.value(), parallel_options);
    ASSERT_TRUE(sequential.ok()) << sequential.error().message;
    ASSERT_TRUE(parallel.ok()) << parallel.error().message;
    ASSERT_EQ(sequential.value().clusters.size(), parallel.value().clusters.size());

    EXPECT_EQ(sequential.value().converged, parallel.value().converged)
        << "scenario " << attempt;
    EXPECT_EQ(sequential.value().cost.value, parallel.value().cost.value)
        << "scenario " << attempt;
    for (std::size_t c = 0; c < sequential.value().clusters.size(); ++c) {
      const AnalysisResult& s = sequential.value().clusters[c];
      const AnalysisResult& p = parallel.value().clusters[c];
      ASSERT_NE(s.exact, nullptr) << "scenario " << attempt << " cluster " << c;
      ASSERT_NE(p.exact, nullptr) << "scenario " << attempt << " cluster " << c;
      EXPECT_EQ(s.exact->fallback, p.exact->fallback)
          << "scenario " << attempt << " cluster " << c;
      EXPECT_EQ(s.exact->explored_states, p.exact->explored_states)
          << "scenario " << attempt << " cluster " << c;
      EXPECT_EQ(s.exact->merged_states, p.exact->merged_states)
          << "scenario " << attempt << " cluster " << c;
      EXPECT_EQ(s.exact->transitions, p.exact->transitions)
          << "scenario " << attempt << " cluster " << c;
      EXPECT_EQ(s.exact->refined_messages, p.exact->refined_messages)
          << "scenario " << attempt << " cluster " << c;
      EXPECT_EQ(s.task_completion, p.task_completion)
          << "scenario " << attempt << " cluster " << c;
      EXPECT_EQ(s.message_completion, p.message_completion)
          << "scenario " << attempt << " cluster " << c;
      EXPECT_EQ(s.cost.value, p.cost.value) << "scenario " << attempt << " cluster " << c;
    }

    ++analysed;
    if (model.cluster_count() > 1) ++multicluster_analysed;
  }
  ASSERT_GE(analysed, kScenarios);
  // The lane must cover both single- and multi-cluster explorations.
  EXPECT_GT(multicluster_analysed, 0);
  EXPECT_GT(analysed - multicluster_analysed, 0);
}

TEST(ExactProperty, ExactEvaluationBitDeterministicAcrossWorkerCounts) {
  Rng rng(7);
  const BusParams params = lane_params();
  SyntheticSpec spec;
  spec.nodes = 3;
  spec.deadline_factor = 0.7;
  spec.seed = 3000;
  auto app = generate_synthetic(spec, params);
  ASSERT_TRUE(app.ok()) << app.error().message;
  const StartConfig start = minimal_start_config(app.value(), params);
  ASSERT_TRUE(start.bounds.feasible());

  // A batch of minislot perturbations evaluated under 1 and 8 workers.
  const SystemConfig base = SystemConfig::single(start.config);
  std::vector<DeltaMove> batch;
  for (int k = 0; k < 12; ++k) {
    batch.push_back(DeltaMove::flexray(start.config));
    batch.back().config.minislot_count += static_cast<int>(rng.uniform_int(0, 16));
  }

  AnalysisOptions exact_options;
  exact_options.mode = AnalysisMode::Exact;
  EvaluatorOptions one_options;
  one_options.threads = 1;
  one_options.cache_enabled = false;
  EvaluatorOptions eight_options;
  eight_options.threads = 8;
  eight_options.cache_enabled = false;
  CostEvaluator one(app.value(), params, exact_options, one_options);
  CostEvaluator eight(app.value(), params, exact_options, eight_options);
  const auto serial = one.evaluate(base, batch);
  const auto parallel = eight.evaluate(base, batch);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].valid, parallel[i].valid) << i;
    EXPECT_EQ(serial[i].cost.value, parallel[i].cost.value) << i;
    EXPECT_EQ(serial[i].analysis.task_completion, parallel[i].analysis.task_completion) << i;
    EXPECT_EQ(serial[i].analysis.message_completion, parallel[i].analysis.message_completion)
        << i;
    if (serial[i].analysis.exact != nullptr) {
      ASSERT_NE(parallel[i].analysis.exact, nullptr) << i;
      EXPECT_EQ(serial[i].analysis.exact->explored_states,
                parallel[i].analysis.exact->explored_states)
          << i;
      EXPECT_EQ(serial[i].analysis.exact->fallback, parallel[i].analysis.exact->fallback) << i;
    }
  }
}

}  // namespace
}  // namespace flexopt
