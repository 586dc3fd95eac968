// Backend-dispatch conformance: the ClusterBackend interface must be
// invisible for single-cluster FlexRay systems (bit-identical costs and
// completions through the old and new evaluator surfaces), TSN clusters
// must price through the same SystemConfig delta path as full evaluation,
// and a mixed FlexRay+TSN system must solve end-to-end through the
// registry optimizers with the backend tags surviving into the report.

#include <gtest/gtest.h>

#include <memory>

#include "flexopt/core/config_builder.hpp"
#include "flexopt/core/solver.hpp"
#include "flexopt/core/tsn_search.hpp"
#include "flexopt/gen/scenario.hpp"
#include "flexopt/io/solve_report_json.hpp"
#include "helpers.hpp"

namespace flexopt {
namespace {

using testing::TinySystem;
using testing::TwoClusterSystem;

TEST(BackendDispatch, SingleClusterFlexrayIsBitIdenticalThroughSystemConfig) {
  TinySystem tiny;
  CostEvaluator move_path(tiny.app, tiny.params, AnalysisOptions{});
  const auto moved =
      move_path.evaluate(SystemConfig::single(tiny.config), DeltaMove::flexray(tiny.config));
  ASSERT_TRUE(moved.valid);

  CostEvaluator system_path(tiny.app, tiny.params, AnalysisOptions{});
  const auto full = system_path.evaluate(SystemConfig::single(tiny.config));
  ASSERT_TRUE(full.valid);

  EXPECT_EQ(moved.cost.value, full.cost.value);
  EXPECT_EQ(moved.cost.schedulable, full.cost.schedulable);
  // The degenerate case routes through the single-bus pipeline: both forms
  // return the single-bus Evaluation itself (analysis filled, no
  // per-cluster vector), byte for byte.
  EXPECT_TRUE(moved.cluster_analysis.empty());
  EXPECT_TRUE(full.cluster_analysis.empty());
  EXPECT_EQ(moved.analysis.task_completion, full.analysis.task_completion);
  EXPECT_EQ(moved.analysis.message_completion, full.analysis.message_completion);
}

struct MixedFixture {
  TwoClusterSystem sys;
  SystemModel model;
  SystemConfig config;

  MixedFixture() {
    // Cluster 1 speaks TSN; re-finalize after the declaration.
    sys.app.set_cluster_backend(static_cast<ClusterId>(1), ClusterBackendKind::Tsn);
    auto fin = sys.app.finalize();
    if (!fin.ok()) throw std::runtime_error(fin.error().message);
    auto built = SystemModel::build(std::make_shared<const Application>(sys.app));
    if (!built.ok()) throw std::runtime_error(built.error().message);
    model = std::move(built).value();
    for (std::size_t c = 0; c < model.cluster_count(); ++c) {
      config.clusters.push_back(minimal_start_cluster_config(
          *model.cluster_app(c), sys.params,
          model.cluster_app(c)->cluster_backend(ClusterId{0})));
    }
  }
};

TEST(BackendDispatch, ProjectionCarriesTheBackendDeclaration) {
  MixedFixture f;
  EXPECT_EQ(f.model.cluster_app(0)->cluster_backend(ClusterId{0}),
            ClusterBackendKind::FlexRay);
  EXPECT_EQ(f.model.cluster_app(1)->cluster_backend(ClusterId{0}), ClusterBackendKind::Tsn);
  EXPECT_EQ(f.config.clusters[0].kind, ClusterBackendKind::FlexRay);
  EXPECT_EQ(f.config.clusters[1].kind, ClusterBackendKind::Tsn);
}

TEST(BackendDispatch, MixedSystemEvaluatesAndDeltaMatchesFull) {
  MixedFixture f;
  CostEvaluator evaluator(f.model, f.sys.params, AnalysisOptions{});
  const auto base = evaluator.evaluate(f.config);
  ASSERT_TRUE(base.valid) << base.error;
  ASSERT_EQ(base.cluster_analysis.size(), 2u);

  // A TSN move on cluster 1: demote the first message's ET priority.
  TsnConfig next = f.config.clusters[1].tsn;
  ASSERT_FALSE(next.et_priority.empty());
  next.et_priority[0] += 1;
  const DeltaMove move = DeltaMove::tsn_between(f.config.clusters[1].tsn, next, 1);
  const auto delta = evaluator.evaluate(f.config, move);
  ASSERT_TRUE(delta.valid) << delta.error;

  SystemConfig substituted = f.config;
  substituted.clusters[1] = ClusterConfig::tsn_switch(next);
  CostEvaluator reference(f.model, f.sys.params, AnalysisOptions{});
  const auto full = reference.evaluate(substituted);
  ASSERT_TRUE(full.valid);
  EXPECT_EQ(delta.cost.value, full.cost.value);
  // The move's view carries the moved cluster's result.
  EXPECT_TRUE(delta.cluster_analysis.empty());
  EXPECT_EQ(delta.analysis.task_completion, full.cluster_analysis[1].task_completion);
  EXPECT_EQ(delta.analysis.message_completion, full.cluster_analysis[1].message_completion);
  // Every cluster's result, through the cache the move filled.
  const auto cached = evaluator.evaluate(substituted);
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_EQ(cached.cluster_analysis[c].task_completion,
              full.cluster_analysis[c].task_completion);
    EXPECT_EQ(cached.cluster_analysis[c].message_completion,
              full.cluster_analysis[c].message_completion);
  }
}

TEST(BackendDispatch, TsnCoordinateDescentNeverWorsensTheSystem) {
  MixedFixture f;
  CostEvaluator evaluator(f.model, f.sys.params, AnalysisOptions{});
  const auto base = evaluator.evaluate(f.config);
  ASSERT_TRUE(base.valid);
  SolveRequest request;
  request.max_evaluations = 80;
  const TsnSearchResult tsn = tsn_coordinate_descent(evaluator, f.config, 1, request);
  EXPECT_LE(tsn.cost.value, base.cost.value);
  if (tsn.improved) {
    SystemConfig best = f.config;
    best.clusters[1] = ClusterConfig::tsn_switch(tsn.config);
    CostEvaluator check(f.model, f.sys.params, AnalysisOptions{});
    const auto re = check.evaluate(best);
    ASSERT_TRUE(re.valid);
    EXPECT_EQ(re.cost.value, tsn.cost.value);
  }
}

TEST(BackendDispatch, MixedThreeClusterSolvesEndToEnd) {
  ScenarioSpec scenario;
  scenario.topology = Topology::MultiCluster;
  scenario.traffic = TrafficMix::DynOnly;
  scenario.clusters = 3;
  scenario.backend = BackendMix::Mixed;
  scenario.inter_cluster_share = 0.25;
  scenario.base.nodes = 6;
  scenario.base.tasks_per_node = 4;
  scenario.base.tasks_per_graph = 4;
  scenario.base.deadline_factor = 2.0;
  scenario.base.seed = 21;
  BusParams params;
  auto app = generate_scenario(scenario, params);
  ASSERT_TRUE(app.ok()) << app.error().message;
  auto model = SystemModel::build(std::make_shared<const Application>(std::move(app).value()));
  ASSERT_TRUE(model.ok()) << model.error().message;

  auto optimizer = OptimizerRegistry::create("bbc");
  ASSERT_TRUE(optimizer.ok());
  CostEvaluator evaluator(model.value(), params, AnalysisOptions{});
  SolveRequest request;
  request.seed = 5;
  request.max_evaluations = 200;
  const SolveReport report = optimizer.value()->solve(evaluator, request);
  ASSERT_EQ(report.outcome.system.cluster_count(), 3u);
  EXPECT_EQ(report.outcome.system.clusters[0].kind, ClusterBackendKind::FlexRay);
  EXPECT_EQ(report.outcome.system.clusters[1].kind, ClusterBackendKind::Tsn);
  EXPECT_EQ(report.outcome.system.clusters[2].kind, ClusterBackendKind::FlexRay);
  EXPECT_TRUE(report.outcome.feasible);

  // The chosen product re-evaluates to the reported cost, and the schema v4
  // report carries the per-cluster backend tags.
  CostEvaluator check(model.value(), params, AnalysisOptions{});
  const auto eval = check.evaluate(report.outcome.system);
  ASSERT_TRUE(eval.valid);
  EXPECT_EQ(eval.cost.value, report.outcome.cost.value);
  const std::string json = write_solve_json(*model.value().global(), "bbc", report);
  EXPECT_NE(json.find("flexopt-solve-report/6"), std::string::npos);
  EXPECT_NE(json.find("\"backend\": \"tsn\""), std::string::npos);
  EXPECT_NE(json.find("\"backend\": \"flexray\""), std::string::npos);
}

}  // namespace
}  // namespace flexopt
