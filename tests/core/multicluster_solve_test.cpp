// Multi-cluster evaluation and solving: the SystemConfig evaluator surface
// (caching, cluster-stamped moves substituted into a base) and the
// block-coordinate descent behind Optimizer::solve, for every registry
// optimizer.

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <string>

#include "flexopt/campaign/spec_format.hpp"
#include "flexopt/core/config_builder.hpp"
#include "flexopt/core/solver.hpp"
#include "flexopt/gen/scenario.hpp"
#include "flexopt/io/solve_report_json.hpp"
#include "helpers.hpp"

namespace flexopt {
namespace {

SystemConfig start_configs(const SystemModel& model, const BusParams& params) {
  SystemConfig config;
  for (std::size_t c = 0; c < model.cluster_count(); ++c) {
    config.clusters.push_back(
        ClusterConfig::flexray_bus(minimal_start_config(*model.cluster_app(c), params).config));
  }
  return config;
}

struct Fixture {
  testing::TwoClusterSystem sys;
  SystemModel model;
  SystemConfig config;

  Fixture() {
    auto built = SystemModel::build(std::make_shared<const Application>(sys.app));
    if (!built.ok()) throw std::runtime_error(built.error().message);
    model = std::move(built).value();
    config = start_configs(model, sys.params);
  }
};

TEST(MulticlusterEvaluator, EvaluateCachesOnSystemConfig) {
  Fixture f;
  CostEvaluator evaluator(f.model, f.sys.params, AnalysisOptions{});
  EXPECT_EQ(evaluator.cluster_count(), 2u);

  const auto first = evaluator.evaluate(f.config);
  ASSERT_TRUE(first.valid);
  EXPECT_EQ(first.cluster_analysis.size(), 2u);
  EXPECT_EQ(evaluator.evaluations(), 1);

  const auto again = evaluator.evaluate(f.config);
  EXPECT_EQ(again.cost.value, first.cost.value);
  EXPECT_EQ(evaluator.evaluations(), 1);  // served from the cache
  EXPECT_EQ(evaluator.cache_stats().hits, 1u);

  // A one-cluster configuration does not fit a two-cluster system.
  const auto narrow = evaluator.evaluate(SystemConfig::single(f.config.clusters[0].flexray));
  EXPECT_FALSE(narrow.valid);
  EXPECT_NE(narrow.error.find("clusters"), std::string::npos);
}

TEST(MulticlusterEvaluator, ClusterMoveSubstitutesIntoTheBase) {
  Fixture f;
  CostEvaluator evaluator(f.model, f.sys.params, AnalysisOptions{});
  // The move re-states cluster 1's own config: the substituted system is
  // the base itself.
  const auto moved =
      evaluator.evaluate(f.config, DeltaMove::flexray(f.config.clusters[1].flexray, 1));
  ASSERT_TRUE(moved.valid);
  const auto direct = evaluator.evaluate(f.config);
  EXPECT_EQ(moved.cost.value, direct.cost.value);
  // The view surfaces cluster 1's per-activity completions (its projection
  // includes the relay task).
  EXPECT_TRUE(moved.cluster_analysis.empty());
  EXPECT_EQ(moved.analysis.task_completion.size(), f.model.cluster_app(1)->task_count());
  EXPECT_EQ(moved.analysis.task_completion, direct.cluster_analysis[1].task_completion);
}

TEST(MulticlusterEvaluator, ClusterDeltaMatchesFullEvaluation) {
  Fixture f;
  CostEvaluator evaluator(f.model, f.sys.params, AnalysisOptions{});

  // Mutate cluster 1's DYN segment length through a cluster-stamped move.
  BusConfig next = f.config.clusters[1].flexray;
  next.minislot_count += 5;
  const DeltaMove move = DeltaMove::flexray(next, 1);
  const auto delta = evaluator.evaluate(f.config, move);
  ASSERT_TRUE(delta.valid);

  SystemConfig substituted = f.config;
  substituted.clusters[1] = ClusterConfig::flexray_bus(next);
  CostEvaluator reference(f.model, f.sys.params, AnalysisOptions{});
  const auto full = reference.evaluate(substituted);
  ASSERT_TRUE(full.valid);
  EXPECT_EQ(delta.cost.value, full.cost.value);
  EXPECT_EQ(delta.analysis.task_completion, full.cluster_analysis[1].task_completion);
  EXPECT_EQ(delta.analysis.message_completion, full.cluster_analysis[1].message_completion);
  EXPECT_EQ(evaluator.work_stats().delta_evaluations, 1u);
  const auto cached = evaluator.evaluate(substituted);
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_EQ(cached.cluster_analysis[c].task_completion,
              full.cluster_analysis[c].task_completion);
    EXPECT_EQ(cached.cluster_analysis[c].message_completion,
              full.cluster_analysis[c].message_completion);
  }

  // Out-of-range cluster indices are rejected, not UB.
  DeltaMove bad = move;
  bad.cluster = 7;
  EXPECT_FALSE(evaluator.evaluate(f.config, bad).valid);
}

TEST(MulticlusterSolve, EveryRegistryOptimizerSolvesATwoClusterSystem) {
  Fixture f;
  for (const OptimizerInfo& info : OptimizerRegistry::list()) {
    auto optimizer = OptimizerRegistry::create(info.name);
    ASSERT_TRUE(optimizer.ok()) << info.name;
    CostEvaluator evaluator(f.model, f.sys.params, AnalysisOptions{});
    SolveRequest request;
    request.seed = 7;
    request.max_evaluations = 120;
    const SolveReport report = optimizer.value()->solve(evaluator, request);
    EXPECT_EQ(report.outcome.system.cluster_count(), 2u) << info.name;
    EXPECT_TRUE(report.outcome.feasible) << info.name;
    EXPECT_LT(report.outcome.cost.value, 0.0) << info.name;  // schedulable slack
    EXPECT_EQ(report.outcome.config, report.outcome.system.clusters[0].flexray) << info.name;
    // The chosen product must re-evaluate to the reported cost.
    CostEvaluator check(f.model, f.sys.params, AnalysisOptions{});
    const auto eval = check.evaluate(report.outcome.system);
    ASSERT_TRUE(eval.valid) << info.name;
    EXPECT_EQ(eval.cost.value, report.outcome.cost.value) << info.name;
  }
}

TEST(MulticlusterSolve, SingleClusterSolveFillsDegenerateSystemConfig) {
  testing::TinySystem tiny;
  auto optimizer = OptimizerRegistry::create("bbc");
  ASSERT_TRUE(optimizer.ok());
  CostEvaluator evaluator(tiny.app, tiny.params, AnalysisOptions{});
  const SolveReport report = optimizer.value()->solve(evaluator);
  ASSERT_EQ(report.outcome.system.cluster_count(), 1u);
  EXPECT_EQ(report.outcome.system.clusters[0].flexray, report.outcome.config);
}

TEST(MulticlusterSolve, PortfolioJobsDoNotChangeTheReport) {
  // The acceptance determinism check at solve level: a racing portfolio on
  // a generated multicluster scenario is byte-identical between jobs=1 and
  // a parallel run (the campaign test covers the campaign level).
  ScenarioSpec scenario;
  scenario.topology = Topology::MultiCluster;
  scenario.traffic = TrafficMix::DynOnly;
  scenario.clusters = 2;
  scenario.inter_cluster_share = 0.3;
  scenario.base.nodes = 4;
  scenario.base.tasks_per_node = 4;
  scenario.base.tasks_per_graph = 4;
  scenario.base.deadline_factor = 2.0;
  scenario.base.seed = 11;
  BusParams params;
  auto app = generate_scenario(scenario, params);
  ASSERT_TRUE(app.ok());
  auto model = SystemModel::build(std::make_shared<const Application>(std::move(app).value()));
  ASSERT_TRUE(model.ok());

  auto solve_with_jobs = [&](int jobs) {
    PortfolioSpec spec;
    spec.members = {"sa", "sa", "obc-cf", "bbc"};
    spec.jobs = jobs;
    auto optimizer = OptimizerRegistry::create("portfolio", spec);
    if (!optimizer.ok()) throw std::runtime_error(optimizer.error().message);
    EvaluatorOptions options;
    options.threads = 1;
    CostEvaluator evaluator(model.value(), params, AnalysisOptions{}, options);
    SolveRequest request;
    request.seed = 3;
    request.max_evaluations = 160;
    const SolveReport report = optimizer.value()->solve(evaluator, request);
    return write_solve_json(*model.value().global(), "portfolio", report);
  };

  const std::string serial = solve_with_jobs(1);
  const std::string parallel = solve_with_jobs(4);
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("cluster_configs"), std::string::npos);
  EXPECT_NE(serial.find("flexopt-solve-report/6"), std::string::npos);
}

TEST(MulticlusterSolve, ProfileCountsEveryAnalysisOfTheDescent) {
  // Scenario 0 of specs/multicluster.campaign, solved exactly like the
  // campaign runner does: the report's profile must account for every
  // analysis the evaluator ran — the initial evaluation and every
  // coordinate pass.
  std::ifstream in(std::string(FLEXOPT_SOURCE_DIR) + "/specs/multicluster.campaign");
  auto spec = parse_campaign(in);
  ASSERT_TRUE(spec.ok()) << spec.error().message;
  auto plans = expand_grid(spec.value());
  ASSERT_TRUE(plans.ok()) << plans.error().message;
  ASSERT_FALSE(plans.value().empty());
  const ScenarioPlan& plan = plans.value()[0];
  const BusParams params;
  auto app = generate_scenario(plan.scenario, params);
  ASSERT_TRUE(app.ok()) << app.error().message;
  auto model = SystemModel::build(std::make_shared<const Application>(std::move(app).value()));
  ASSERT_TRUE(model.ok()) << model.error().message;
  ASSERT_GT(model.value().cluster_count(), 1u);

  auto optimizer = OptimizerRegistry::create("bbc");
  ASSERT_TRUE(optimizer.ok());
  EvaluatorOptions options;
  options.threads = 1;
  CostEvaluator evaluator(model.value(), params, AnalysisOptions{}, options);
  SolveRequest request;
  request.seed = plan.scenario.base.seed;
  request.max_evaluations = spec.value().max_evaluations;
  const SolveReport report = optimizer.value()->solve(evaluator, request);

  const EvaluatorWorkStats work = evaluator.work_stats();
  ASSERT_GT(work.full_evaluations, 0u);
  EXPECT_EQ(report.profile.full_evaluations, work.full_evaluations);
  EXPECT_EQ(report.profile.delta_evaluations, work.delta_evaluations);
  EXPECT_EQ(report.profile.analysis.components(), work.analysis.components());
  EXPECT_EQ(report.delta_evaluations, work.delta_evaluations);
  EXPECT_EQ(report.components_recomputed, work.analysis.components());
}

}  // namespace
}  // namespace flexopt
