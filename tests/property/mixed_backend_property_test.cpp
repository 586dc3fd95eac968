// Mixed-backend property lane (`ctest -R mixed_backend -L property`):
// across >= 25 random MultiCluster scenarios with alternating FlexRay/TSN
// clusters, (a) SystemConfig delta evaluation matches full evaluation bit
// for bit on random moves of either backend, and (b) every completion the
// network simulator observes stays within its analyze_multicluster bound on
// the mixed systems (the TSN guard-banding soundness check).

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "flexopt/analysis/multicluster.hpp"
#include "flexopt/core/config_builder.hpp"
#include "flexopt/core/solver.hpp"
#include "flexopt/gen/scenario.hpp"
#include "flexopt/netsim/netsim.hpp"
#include "flexopt/util/rng.hpp"

namespace flexopt {
namespace {

constexpr int kScenarios = 25;

ScenarioSpec random_mixed_spec(Rng& rng) {
  ScenarioSpec spec;
  spec.topology = Topology::MultiCluster;
  spec.traffic = TrafficMix::DynOnly;
  spec.clusters = static_cast<int>(rng.uniform_int(2, 4));
  spec.backend = BackendMix::Mixed;
  spec.inter_cluster_share = rng.uniform_real(0.1, 0.5);
  SyntheticSpec& base = spec.base;
  base.nodes = spec.clusters * static_cast<int>(rng.uniform_int(1, 2));
  base.tasks_per_graph = 4;
  base.tasks_per_node = 4 * static_cast<int>(rng.uniform_int(1, 2));
  base.deadline_factor = rng.uniform_real(1.5, 2.5);
  base.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
  return spec;
}

SystemModel make_model(const ScenarioSpec& spec, const BusParams& params) {
  auto app = generate_scenario(spec, params);
  if (!app.ok()) throw std::runtime_error(app.error().message);
  auto model = SystemModel::build(std::make_shared<const Application>(std::move(app).value()));
  if (!model.ok()) throw std::runtime_error(model.error().message);
  return std::move(model).value();
}

SystemConfig start_configs(const SystemModel& model, const BusParams& params) {
  SystemConfig config;
  for (std::size_t c = 0; c < model.cluster_count(); ++c) {
    config.clusters.push_back(minimal_start_cluster_config(
        *model.cluster_app(c), params, model.cluster_app(c)->cluster_backend(ClusterId{0})));
  }
  return config;
}

/// One random admissible mutation of cluster `c`, dispatched on its backend.
DeltaMove random_move(Rng& rng, const SystemConfig& base, int cluster) {
  const ClusterConfig& cfg = base.clusters[static_cast<std::size_t>(cluster)];
  if (cfg.kind == ClusterBackendKind::Tsn) {
    TsnConfig next = cfg.tsn;
    if (next.et_priority.empty() || rng.chance(0.3)) {
      // Degenerate/empty cluster: nothing to permute — nudge nothing and
      // fall through to a priority bump on the first entry if any.
      if (!next.et_priority.empty()) next.et_priority[0] += 1;
    } else if (rng.chance(0.5)) {
      const std::size_t m = rng.index(next.et_priority.size());
      next.et_priority[m] += static_cast<int>(rng.uniform_int(1, 3));
    } else {
      const std::size_t a = rng.index(next.et_priority.size());
      const std::size_t b = rng.index(next.et_priority.size());
      std::swap(next.et_priority[a], next.et_priority[b]);
      if (a == b) next.et_priority[a] += 1;
    }
    return DeltaMove::tsn_between(cfg.tsn, std::move(next), cluster);
  }
  BusConfig next = cfg.flexray;
  next.minislot_count += static_cast<int>(rng.uniform_int(1, 8));
  return DeltaMove::flexray(std::move(next), cluster);
}

TEST(MixedBackendProperty, DeltaMatchesFullEvaluationAcrossBackends) {
  Rng rng(20260808);
  const BusParams params;
  int tsn_moves = 0;
  for (int i = 0; i < kScenarios; ++i) {
    const ScenarioSpec spec = random_mixed_spec(rng);
    const SystemModel model = make_model(spec, params);
    CostEvaluator evaluator(model, params, AnalysisOptions{});
    SystemConfig base = start_configs(model, params);

    for (int step = 0; step < 3; ++step) {
      const int cluster = static_cast<int>(rng.index(model.cluster_count()));
      const DeltaMove move = random_move(rng, base, cluster);
      if (base.clusters[static_cast<std::size_t>(cluster)].kind == ClusterBackendKind::Tsn) {
        ++tsn_moves;
      }

      const auto delta = evaluator.evaluate(base, move);
      CostEvaluator fresh(model, params, AnalysisOptions{});
      SystemConfig substituted = base;
      auto& slot = substituted.clusters[static_cast<std::size_t>(cluster)];
      if (slot.kind == ClusterBackendKind::Tsn) {
        slot = ClusterConfig::tsn_switch(move.tsn);
      } else {
        slot = ClusterConfig::flexray_bus(move.config);
      }
      const auto full = fresh.evaluate(substituted);
      ASSERT_EQ(delta.valid, full.valid) << "scenario " << i << " step " << step;
      if (!delta.valid) continue;
      EXPECT_EQ(delta.cost.value, full.cost.value) << "scenario " << i << " step " << step;
      EXPECT_EQ(delta.cost.schedulable, full.cost.schedulable);
      // The move's view carries the moved cluster's result; every
      // cluster's result is read back through the cache the move filled.
      const auto& moved = full.cluster_analysis[static_cast<std::size_t>(cluster)];
      EXPECT_EQ(delta.analysis.task_completion, moved.task_completion);
      EXPECT_EQ(delta.analysis.message_completion, moved.message_completion);
      const auto cached = evaluator.evaluate(substituted);
      for (std::size_t c = 0; c < model.cluster_count(); ++c) {
        EXPECT_EQ(cached.cluster_analysis[c].task_completion,
                  full.cluster_analysis[c].task_completion);
        EXPECT_EQ(cached.cluster_analysis[c].message_completion,
                  full.cluster_analysis[c].message_completion);
      }
      base = std::move(substituted);
    }
  }
  // Mixed assignment guarantees every 2+ cluster system has a TSN cluster;
  // the random walk must actually have exercised the TSN delta path.
  EXPECT_GT(tsn_moves, 0);
}

TEST(MixedBackendProperty, NetsimObservationsStayWithinBoundsOnMixedSystems) {
  Rng rng(883311);
  const BusParams params;
  int simulated = 0;
  int tsn_clusters = 0;
  for (int i = 0; i < 40 && simulated < kScenarios; ++i) {
    const ScenarioSpec spec = random_mixed_spec(rng);
    auto app = generate_scenario(spec, params);
    if (!app.ok()) continue;
    auto model =
        SystemModel::build(std::make_shared<const Application>(std::move(app).value()));
    ASSERT_TRUE(model.ok()) << model.error().message;

    const SystemConfig config = start_configs(model.value(), params);
    auto layouts = build_system_layouts(model.value(), params, config);
    if (!layouts.ok()) continue;  // infeasible start config: nothing to simulate
    auto analysis = analyze_multicluster(model.value(), layouts.value(), AnalysisOptions{});
    ASSERT_TRUE(analysis.ok()) << analysis.error().message;

    auto net = simulate_network(model.value(), layouts.value(), analysis.value());
    ASSERT_TRUE(net.ok()) << net.error().message;
    const SoundnessReport report =
        check_soundness(model.value(), analysis.value(), net.value());
    EXPECT_TRUE(report.sound) << "scenario " << i << " seed " << spec.base.seed;
    for (const SoundnessViolation& v : report.violations) {
      ADD_FAILURE() << "observed " << v.observed << " > bound " << v.bound;
    }
    ++simulated;
    for (const ClusterLayout& layout : layouts.value()) {
      if (layout.kind() == ClusterBackendKind::Tsn) ++tsn_clusters;
    }
  }
  ASSERT_GE(simulated, kScenarios);
  // The sweep must actually have covered TSN clusters, not just FlexRay.
  EXPECT_GT(tsn_clusters, 0);
}

}  // namespace
}  // namespace flexopt
