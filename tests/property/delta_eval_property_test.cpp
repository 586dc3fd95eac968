// Property test of the incremental evaluation engine: across random
// (spec, move-sequence) pairs drawn from every topology family, a chain of
// SA neighbourhood moves evaluated through the move form
// CostEvaluator::evaluate(base, move) must agree bit-for-bit with
// independent full evaluations — costs, completion bounds, jitters and
// convergence alike.  25 pairs per family
// x 4 families = 100 pairs, each with an 8-move chain.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "flexopt/core/config_builder.hpp"
#include "flexopt/core/evaluator.hpp"
#include "flexopt/core/sa.hpp"
#include "flexopt/gen/scenario.hpp"
#include "flexopt/util/rng.hpp"

namespace flexopt {
namespace {

constexpr int kPairsPerFamily = 25;
constexpr int kMovesPerPair = 8;

ScenarioSpec random_spec(Topology topology, Rng& rng) {
  ScenarioSpec spec;
  spec.topology = topology;
  spec.traffic = TrafficMix::Mixed;  // both segments populated: every move shape applies
  SyntheticSpec& base = spec.base;
  base.nodes = static_cast<int>(rng.uniform_int(2, 5));
  base.tasks_per_graph = static_cast<int>(rng.uniform_int(2, 4));
  base.tasks_per_node = base.tasks_per_graph * static_cast<int>(rng.uniform_int(1, 2));
  base.tt_share = rng.uniform_real(0.2, 0.8);
  base.deadline_factor = rng.uniform_real(0.6, 1.2);
  base.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
  return spec;
}

void expect_identical(const CostEvaluator::Evaluation& delta,
                      const CostEvaluator::Evaluation& full, const std::string& label) {
  ASSERT_EQ(delta.valid, full.valid) << label;
  if (!full.valid) return;
  EXPECT_EQ(delta.cost.value, full.cost.value) << label;
  EXPECT_EQ(delta.cost.schedulable, full.cost.schedulable) << label;
  EXPECT_EQ(delta.analysis.task_completion, full.analysis.task_completion) << label;
  EXPECT_EQ(delta.analysis.message_completion, full.analysis.message_completion) << label;
  EXPECT_EQ(delta.analysis.task_jitter, full.analysis.task_jitter) << label;
  EXPECT_EQ(delta.analysis.message_jitter, full.analysis.message_jitter) << label;
  EXPECT_EQ(delta.analysis.converged, full.analysis.converged) << label;
}

void run_family(Topology topology) {
  BusParams params;
  Rng rng(0xde17a0000u + static_cast<std::uint64_t>(topology));
  int chains_run = 0;
  for (int pair = 0; pair < kPairsPerFamily; ++pair) {
    const ScenarioSpec spec = random_spec(topology, rng);
    const std::string where = std::string(to_string(topology)) + " pair " +
                              std::to_string(pair) + " seed " +
                              std::to_string(spec.base.seed);
    auto app_result = generate_scenario(spec, params);
    ASSERT_TRUE(app_result.ok()) << where << ": " << app_result.error().message;
    const Application& app = app_result.value();

    const StartConfig start = minimal_start_config(app, params);
    if (!start.bounds.feasible()) continue;  // degenerate cell: nothing to walk
    const std::vector<NodeId>& senders = start.st_senders;
    const DynBounds& bounds = start.bounds;
    BusConfig current = start.config;

    CostEvaluator full(app, params, AnalysisOptions{});
    CostEvaluator delta(app, params, AnalysisOptions{});
    const SystemConfig base = SystemConfig::single(current);
    expect_identical(delta.evaluate(base), full.evaluate(base), where + " start");

    Rng move_rng(spec.base.seed ^ 0x9e3779b97f4a7c15ull);
    for (int step = 0; step < kMovesPerPair; ++step) {
      BusConfig neighbour = current;
      bool moved = false;
      for (int attempt = 0; attempt < 8 && !moved; ++attempt) {
        moved = random_neighbour_move(neighbour, app, params, move_rng, senders,
                                      bounds.min_minislots, SpecLimits::kMaxMinislots);
      }
      if (!moved) continue;
      const DeltaMove move = DeltaMove::flexray(std::move(neighbour));
      const auto ef = full.evaluate(SystemConfig::single(move.config));
      const auto& ed = delta.evaluate(SystemConfig::single(current), move);
      expect_identical(ed, ef, where + " step " + std::to_string(step));
      // Walk on through every analysable neighbour (invalid ones keep the
      // previous base).
      if (ef.valid) current = move.config;
    }
    ++chains_run;
  }
  // The generator must give us real work for most draws.
  EXPECT_GE(chains_run, kPairsPerFamily / 2) << to_string(topology);
}

TEST(DeltaEvalProperty, RandomDagChainsMatchFullEvaluation) {
  run_family(Topology::RandomDag);
}

TEST(DeltaEvalProperty, PipelineChainsMatchFullEvaluation) {
  run_family(Topology::Pipeline);
}

TEST(DeltaEvalProperty, FanInFanOutChainsMatchFullEvaluation) {
  run_family(Topology::FanInFanOut);
}

TEST(DeltaEvalProperty, GatewayHeavyChainsMatchFullEvaluation) {
  run_family(Topology::GatewayHeavy);
}

}  // namespace
}  // namespace flexopt
