// The unified Solver API: OptimizerRegistry round-trips, SolveRequest
// budgets, progress reporting, and cooperative cancellation.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "flexopt/core/solver.hpp"
#include "flexopt/gen/cruise_control.hpp"
#include "helpers.hpp"

namespace flexopt {
namespace {

using testing::TinySystem;

TEST(OptimizerRegistry, RoundTripsAllFourAlgorithms) {
  const std::vector<std::pair<std::string, std::string>> expectations{
      {"bbc", "BBC"}, {"obc-ee", "OBC-exhaustive"}, {"obc-cf", "OBC-curve-fit"}, {"sa", "SA"}};
  for (const auto& [key, algorithm_label] : expectations) {
    auto optimizer = OptimizerRegistry::create(key);
    ASSERT_TRUE(optimizer.ok()) << key;
    EXPECT_EQ(optimizer.value()->name(), key);

    TinySystem sys;
    CostEvaluator evaluator(sys.app, sys.params, AnalysisOptions{});
    SolveRequest request;
    if (key == "sa") request.max_evaluations = 60;
    const SolveReport report = optimizer.value()->solve(evaluator, request);
    EXPECT_EQ(report.outcome.algorithm, algorithm_label) << key;
    EXPECT_LT(report.outcome.cost.value, kInvalidConfigCost) << key;
    EXPECT_GT(report.outcome.evaluations, 0) << key;
  }
}

TEST(OptimizerRegistry, ListContainsTheBuiltins) {
  const std::vector<OptimizerInfo> algorithms = OptimizerRegistry::list();
  ASSERT_GE(algorithms.size(), 4u);
  auto has = [&](const std::string& name) {
    for (const OptimizerInfo& info : algorithms) {
      if (info.name == name) return !info.description.empty();
    }
    return false;
  };
  EXPECT_TRUE(has("bbc"));
  EXPECT_TRUE(has("obc-ee"));
  EXPECT_TRUE(has("obc-cf"));
  EXPECT_TRUE(has("sa"));
  // list() is sorted by name.
  for (std::size_t i = 1; i < algorithms.size(); ++i) {
    EXPECT_LT(algorithms[i - 1].name, algorithms[i].name);
  }
}

TEST(OptimizerRegistry, AcceptsAliasesAndAnyCase) {
  for (const char* name : {"OBCCF", "obccf", "Obc-Cf", "OBC_CF"}) {
    auto optimizer = OptimizerRegistry::create(name);
    ASSERT_TRUE(optimizer.ok()) << name;
    EXPECT_EQ(optimizer.value()->name(), "obc-cf") << name;
  }
  EXPECT_TRUE(OptimizerRegistry::contains("ObCeE"));
}

TEST(OptimizerRegistry, UnknownNameErrorListsTheValidSet) {
  auto optimizer = OptimizerRegistry::create("does-not-exist");
  ASSERT_FALSE(optimizer.ok());
  const std::string& message = optimizer.error().message;
  EXPECT_NE(message.find("does-not-exist"), std::string::npos);
  for (const char* name : {"bbc", "obc-ee", "obc-cf", "sa"}) {
    EXPECT_NE(message.find(name), std::string::npos) << message;
  }
}

TEST(OptimizerRegistry, RejectsWrongPayloadType) {
  auto optimizer = OptimizerRegistry::create("bbc", SaOptions{});
  ASSERT_FALSE(optimizer.ok());
  EXPECT_NE(optimizer.error().message.find("bbc"), std::string::npos);
}

TEST(OptimizerRegistry, ForwardsPerAlgorithmPayloads) {
  ObcEeParams params;
  params.dyn.max_sweep_points = 4;
  auto coarse = OptimizerRegistry::create("obc-ee", params);
  ASSERT_TRUE(coarse.ok());
  params.dyn.max_sweep_points = 64;
  auto fine = OptimizerRegistry::create("obc-ee", params);
  ASSERT_TRUE(fine.ok());

  TinySystem sys;
  CostEvaluator e1(sys.app, sys.params, AnalysisOptions{});
  CostEvaluator e2(sys.app, sys.params, AnalysisOptions{});
  const long coarse_evals = coarse.value()->solve(e1).outcome.evaluations;
  const long fine_evals = fine.value()->solve(e2).outcome.evaluations;
  EXPECT_LE(coarse_evals, fine_evals);
}

TEST(Solver, EvaluationBudgetIsEnforced) {
  const Application app = build_cruise_controller();
  const BusParams params = cruise_controller_params();
  auto optimizer = OptimizerRegistry::create("obc-ee");
  ASSERT_TRUE(optimizer.ok());

  CostEvaluator evaluator(app, params, AnalysisOptions{});
  SolveRequest request;
  request.max_evaluations = 5;
  const SolveReport report = optimizer.value()->solve(evaluator, request);
  EXPECT_EQ(report.status, SolveStatus::BudgetExhausted);
  EXPECT_LE(report.outcome.evaluations, 5);
}

TEST(Solver, PreCancelledRequestStopsBeforeAnyAnalysis) {
  const Application app = build_cruise_controller();
  const BusParams params = cruise_controller_params();
  auto optimizer = OptimizerRegistry::create("obc-ee");
  ASSERT_TRUE(optimizer.ok());

  CostEvaluator evaluator(app, params, AnalysisOptions{});
  SolveRequest request;
  request.cancel = std::make_shared<std::atomic<bool>>(true);
  const SolveReport report = optimizer.value()->solve(evaluator, request);
  EXPECT_EQ(report.status, SolveStatus::Cancelled);
  EXPECT_EQ(report.outcome.evaluations, 0);
}

TEST(Solver, ProgressCallbackObservesTheRun) {
  TinySystem sys;
  auto optimizer = OptimizerRegistry::create("obc-cf");
  ASSERT_TRUE(optimizer.ok());

  CostEvaluator evaluator(sys.app, sys.params, AnalysisOptions{});
  int calls = 0;
  long last_evaluations = -1;
  SolveRequest request;
  request.progress = [&](const SolveProgress& progress) {
    ++calls;
    EXPECT_GE(progress.evaluations, last_evaluations);
    last_evaluations = progress.evaluations;
    EXPECT_EQ(progress.algorithm, "OBC-CF");
    return true;
  };
  const SolveReport report = optimizer.value()->solve(evaluator, request);
  EXPECT_EQ(report.status, SolveStatus::Complete);
  EXPECT_GT(calls, 0);
}

TEST(Solver, ProgressCallbackCanCancel) {
  const Application app = build_cruise_controller();
  const BusParams params = cruise_controller_params();
  auto optimizer = OptimizerRegistry::create("obc-ee");
  ASSERT_TRUE(optimizer.ok());

  CostEvaluator evaluator(app, params, AnalysisOptions{});
  SolveRequest request;
  request.progress = [](const SolveProgress&) { return false; };
  const SolveReport report = optimizer.value()->solve(evaluator, request);
  EXPECT_EQ(report.status, SolveStatus::Cancelled);
  // Cancelled on the first poll: at most one batch of work happened.
  EXPECT_LT(report.outcome.evaluations, 64);
}

TEST(Solver, SaBudgetFromRequestReportsBudgetExhausted) {
  const Application app = build_cruise_controller();
  const BusParams params = cruise_controller_params();
  auto optimizer = OptimizerRegistry::create("sa");
  ASSERT_TRUE(optimizer.ok());

  CostEvaluator evaluator(app, params, AnalysisOptions{});
  SolveRequest request;
  request.max_evaluations = 50;
  const SolveReport report = optimizer.value()->solve(evaluator, request);
  EXPECT_EQ(report.status, SolveStatus::BudgetExhausted);
  EXPECT_LE(report.outcome.evaluations, 50 + 1);
}

TEST(Solver, SaPayloadSeedRespectedWhenRequestLeavesItUnset) {
  const Application app = build_cruise_controller();
  const BusParams params = cruise_controller_params();
  SaOptions payload;
  payload.seed = 5;
  payload.max_evaluations = 80;

  auto solve_with = [&](const OptimizerParams& params_payload, const SolveRequest& request) {
    auto optimizer = OptimizerRegistry::create("sa", params_payload);
    EXPECT_TRUE(optimizer.ok());
    CostEvaluator evaluator(app, params, AnalysisOptions{});
    return optimizer.value()->solve(evaluator, request);
  };
  // Payload seed with an unset request seed == same payload with the seed
  // set through the request instead: identical trajectories.  (The budget
  // stays in the payload for both — request budgets add cooperative stops
  // inside the seeding passes, which payload budgets don't.)
  SaOptions payload_default_seed;
  payload_default_seed.max_evaluations = 80;
  SolveRequest via_request;
  via_request.seed = 5;
  const SolveReport a = solve_with(payload, SolveRequest{});
  const SolveReport b = solve_with(payload_default_seed, via_request);
  EXPECT_DOUBLE_EQ(a.outcome.cost.value, b.outcome.cost.value);
  EXPECT_EQ(a.outcome.config, b.outcome.config);
}

TEST(Solver, SaSeedComesFromTheRequest) {
  const Application app = build_cruise_controller();
  const BusParams params = cruise_controller_params();
  SolveRequest request;
  request.seed = 99;
  request.max_evaluations = 80;

  auto run = [&]() {
    auto optimizer = OptimizerRegistry::create("sa");
    EXPECT_TRUE(optimizer.ok());
    CostEvaluator evaluator(app, params, AnalysisOptions{});
    return optimizer.value()->solve(evaluator, request);
  };
  const SolveReport a = run();
  const SolveReport b = run();
  EXPECT_DOUBLE_EQ(a.outcome.cost.value, b.outcome.cost.value);
  EXPECT_EQ(a.outcome.config, b.outcome.config);
}

TEST(Solver, ReportCarriesCacheCounters) {
  const Application app = build_cruise_controller();
  const BusParams params = cruise_controller_params();
  auto optimizer = OptimizerRegistry::create("sa");
  ASSERT_TRUE(optimizer.ok());

  CostEvaluator evaluator(app, params, AnalysisOptions{});
  SolveRequest request;
  request.max_evaluations = 120;
  const SolveReport report = optimizer.value()->solve(evaluator, request);
  // SA revisits configurations; the cache must have absorbed some of them.
  EXPECT_GT(report.cache_misses, 0u);
  EXPECT_EQ(report.cache_misses, evaluator.cache_stats().misses);
}

/// A front-end-defined optimizer: registration is open, not builtin-only.
TEST(OptimizerRegistry, SupportsExternalRegistration) {
  class FixedConfigOptimizer final : public Optimizer {
   public:
    [[nodiscard]] std::string_view name() const override { return "fixed"; }
    SolveReport solve_cluster(CostEvaluator& evaluator, const SystemConfig&, int,
                              const SolveRequest&) override {
      SolveReport report;
      TinySystem sys;
      const auto eval = evaluator.evaluate(SystemConfig::single(sys.config));
      report.outcome.algorithm = "FIXED";
      report.outcome.config = sys.config;
      report.outcome.cost = eval.cost;
      report.outcome.feasible = eval.cost.schedulable;
      report.outcome.evaluations = 1;
      return report;
    }
  };
  OptimizerRegistry::register_optimizer(
      "test-fixed", "unit-test optimizer",
      [](const OptimizerParams&) -> Expected<std::unique_ptr<Optimizer>> {
        return std::unique_ptr<Optimizer>(std::make_unique<FixedConfigOptimizer>());
      });
  ASSERT_TRUE(OptimizerRegistry::contains("test-fixed"));
  auto optimizer = OptimizerRegistry::create("test-fixed");
  ASSERT_TRUE(optimizer.ok());
  TinySystem sys;
  CostEvaluator evaluator(sys.app, sys.params, AnalysisOptions{});
  EXPECT_EQ(optimizer.value()->solve(evaluator).outcome.algorithm, "FIXED");
}

}  // namespace
}  // namespace flexopt
