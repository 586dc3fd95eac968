// Property suite for the multi-cluster pipeline: across random
// MultiCluster ScenarioSpecs (2-4 clusters, varying inter-cluster share),
// (a) the coordinate-descent solve with a racing portfolio is
// byte-identical between jobs=1 and a parallel run — the acceptance
// determinism contract — and (b) cluster delta evaluation matches full
// evaluation bit for bit on random cluster moves.  The population size is
// sized for the sanitize CI lane (Debug + ASan re-runs every evaluation
// cache-free through the in-tree bit-identity assertions, a ~100x
// multiplier over Release).

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "flexopt/core/portfolio.hpp"
#include "flexopt/core/solver.hpp"
#include "flexopt/gen/scenario.hpp"
#include "flexopt/io/solve_report_json.hpp"
#include "flexopt/util/rng.hpp"

namespace flexopt {
namespace {

constexpr int kScenarios = 12;
constexpr long kBudget = 72;

ScenarioSpec random_spec(Rng& rng) {
  ScenarioSpec spec;
  spec.topology = Topology::MultiCluster;
  spec.traffic = TrafficMix::DynOnly;
  spec.clusters = static_cast<int>(rng.uniform_int(2, 4));
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

TEST(MulticlusterProperty, PortfolioDescentIsJobCountInvariant) {
  Rng rng(20260730);
  const BusParams params;
  for (int i = 0; i < kScenarios; ++i) {
    const ScenarioSpec spec = random_spec(rng);
    const SystemModel model = make_model(spec, params);
    auto solve = [&](int jobs) {
      PortfolioSpec portfolio;
      portfolio.members = {"sa", "obc-cf", "bbc"};
      portfolio.jobs = jobs;
      auto optimizer = OptimizerRegistry::create("portfolio", portfolio);
      if (!optimizer.ok()) throw std::runtime_error(optimizer.error().message);
      EvaluatorOptions options;
      options.threads = 1;
      CostEvaluator evaluator(model, params, AnalysisOptions{}, options);
      SolveRequest request;
      request.seed = spec.base.seed;
      request.max_evaluations = kBudget;
      const SolveReport report = optimizer.value()->solve(evaluator, request);
      return write_solve_json(*model.global(), "portfolio", report);
    };
    const std::string serial = solve(1);
    EXPECT_EQ(serial, solve(8)) << "scenario " << i << " seed " << spec.base.seed;
  }
}

TEST(MulticlusterProperty, ClusterDeltaMatchesFullEvaluation) {
  Rng rng(424242);
  const BusParams params;
  for (int i = 0; i < kScenarios; ++i) {
    const ScenarioSpec spec = random_spec(rng);
    const SystemModel model = make_model(spec, params);
    CostEvaluator evaluator(model, params, AnalysisOptions{});

    // Start from a solved-ish product (one cheap bbc descent), then walk a
    // short random chain of cluster moves comparing delta vs full.
    auto bbc = OptimizerRegistry::create("bbc");
    ASSERT_TRUE(bbc.ok());
    SolveRequest request;
    request.max_evaluations = 32;
    SystemConfig base = bbc.value()->solve(evaluator, request).outcome.system;
    ASSERT_EQ(base.cluster_count(), model.cluster_count());

    for (int step = 0; step < 4; ++step) {
      const int cluster = static_cast<int>(rng.index(model.cluster_count()));
      BusConfig next = base.clusters[static_cast<std::size_t>(cluster)].flexray;
      // Random admissible mutation: DYN length nudge or a FrameID swap
      // between two DYN messages (exercises the frame-id invalidation
      // path; an inadmissible swap makes delta and full both invalid,
      // which the equality assertions below still cover).
      std::vector<std::size_t> dyn_slots;
      for (std::size_t m = 0; m < next.frame_id.size(); ++m) {
        if (next.frame_id[m] > 0) dyn_slots.push_back(m);
      }
      if (rng.chance(0.5) || dyn_slots.size() < 2) {
        next.minislot_count += static_cast<int>(rng.uniform_int(1, 8));
      } else {
        const std::size_t a = dyn_slots[rng.index(dyn_slots.size())];
        const std::size_t b = dyn_slots[rng.index(dyn_slots.size())];
        std::swap(next.frame_id[a], next.frame_id[b]);
        if (a == b) next.minislot_count += 1;  // degenerate swap: still move
      }
      const DeltaMove move = DeltaMove::flexray(std::move(next), cluster);

      const auto delta = evaluator.evaluate(base, move);
      CostEvaluator fresh(model, params, AnalysisOptions{});
      SystemConfig substituted = base;
      substituted.clusters[static_cast<std::size_t>(cluster)] =
          ClusterConfig::flexray_bus(move.config);
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
}

}  // namespace
}  // namespace flexopt
