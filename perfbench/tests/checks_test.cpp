// Feeds each output check one honest and one tampered result: the honest
// one must pass and the tampered one must fail.  Exits non-zero on any
// unexpected verdict.
//
//   cmake --build .bench_build/perfbench --target perfbench_checks_test
//   .bench_build/perfbench/perfbench_checks_test

#include <cmath>
#include <iostream>
#include <string>

#include "checks.hpp"
#include "flexopt/campaign/campaign.hpp"
#include "flexopt/core/solver.hpp"

namespace {

using namespace flexopt;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  if (!ok) ++failures;
}

SystemModel make_system(Topology topology, int nodes, int clusters, std::uint64_t seed) {
  ScenarioSpec spec;
  spec.topology = topology;
  spec.clusters = clusters;
  spec.base.nodes = nodes;
  spec.base.seed = seed;
  if (topology == Topology::MultiCluster) {
    spec.traffic = TrafficMix::DynOnly;
    spec.base.tasks_per_node = 4;
    spec.base.tasks_per_graph = 4;
    spec.base.deadline_factor = 2.0;
  }
  auto app = generate_scenario(spec, BusParams{});
  if (!app.ok()) throw std::runtime_error(app.error().message);
  auto model = SystemModel::build(std::make_shared<const Application>(std::move(app).value()));
  if (!model.ok()) throw std::runtime_error(model.error().message);
  return std::move(model).value();
}

SolveReport solve(const SystemModel& model, const AnalysisOptions& options) {
  auto bbc = OptimizerRegistry::create("bbc");
  EvaluatorOptions one_thread;
  one_thread.threads = 1;
  CostEvaluator evaluator(model, BusParams{}, options, one_thread);
  return bbc.value()->solve(evaluator);
}

CostEvaluator::Evaluation fresh_evaluation(const SystemModel& model, const SystemConfig& config,
                                           const AnalysisOptions& options) {
  EvaluatorOptions no_cache;
  no_cache.cache_enabled = false;
  no_cache.threads = 1;
  CostEvaluator evaluator(model, BusParams{}, options, no_cache);
  return evaluator.evaluate_system(config);
}

void single_bus_checks() {
  const BusParams params;
  const SystemModel model = make_system(Topology::RandomDag, 3, 1, 11);
  const SolveReport report = solve(model, {});
  const SystemConfig& winner = report.outcome.system;
  const CostEvaluator::Evaluation eval = fresh_evaluation(model, winner, {});
  const double cost = report.outcome.cost.value;

  expect(perfbench::check_cost_reproduces(cost, eval).empty(), "1. reported cost reproduces");
  expect(!perfbench::check_cost_reproduces(std::nextafter(cost, 1e300), eval).empty(),
         "1. cost off by one ulp is caught");

  const bool feasible = report.outcome.feasible;
  expect(perfbench::check_schedulability(model, eval, feasible).empty(),
         "2. schedulability flag agrees with the bounds");
  expect(!perfbench::check_schedulability(model, eval, !feasible).empty(),
         "2. flipped schedulability flag is caught");
  CostEvaluator::Evaluation late = eval;
  late.analysis.task_completion[0] = kTimeInfinity;
  expect(!perfbench::check_schedulability(model, late, true).empty(),
         "2. an unbounded activity reported schedulable is caught");

  expect(perfbench::check_flexray_limits(winner, params).empty(), "3. winner within limits");
  SystemConfig tampered = winner;
  tampered.clusters[0].flexray.minislot_count = perfbench::kMaxMinislots + 1;
  expect(!perfbench::check_flexray_limits(tampered, params).empty(), "3. 7995 minislots caught");
  tampered = winner;
  tampered.clusters[0].flexray.static_slot_count = perfbench::kMaxStaticSlots + 1;
  expect(!perfbench::check_flexray_limits(tampered, params).empty(),
         "3. 1024 static slots caught");
  tampered = winner;
  tampered.clusters[0].flexray.static_slot_len = 662 * params.gd_macrotick;
  expect(!perfbench::check_flexray_limits(tampered, params).empty(),
         "3. 662-macrotick static slot caught");
  tampered = winner;
  tampered.clusters[0].flexray.static_slot_count = 40;
  tampered.clusters[0].flexray.static_slot_len = 400 * params.gd_macrotick;
  expect(!perfbench::check_flexray_limits(tampered, params).empty(),
         "3. 16 ms + bus cycle caught");

  expect(perfbench::check_budget(600, 600).empty(), "4. budget met");
  expect(!perfbench::check_budget(601, 600).empty(), "4. one analysis over budget caught");
}

void replay_checks() {
  const BusParams params;
  const SystemModel model = make_system(Topology::MultiCluster, 4, 2, 7);
  AnalysisOptions exact;
  exact.mode = AnalysisMode::Exact;
  exact.exact.jobs = 1;
  const SolveReport report = solve(model, exact);
  auto layouts = build_system_layouts(model, params, report.outcome.system);
  auto bounds = analyze_multicluster(model, layouts.value(), exact);
  auto holistic = analyze_multicluster(model, layouts.value(), AnalysisOptions{});
  auto sim = simulate_network(model, layouts.value(), bounds.value());
  expect(perfbench::check_replay(model, bounds.value(), &holistic.value(), sim.value()).empty(),
         "5. observed <= exact <= holistic");

  NetSimResult late = sim.value();
  late.clusters[0].message_worst_completion[0] = bounds.value().clusters[0].message_completion[0] + 1;
  expect(!perfbench::check_replay(model, bounds.value(), &holistic.value(), late).empty(),
         "5. observed completion above its bound caught");

  MulticlusterResult loose = holistic.value();
  loose.clusters[0].message_completion[0] = bounds.value().clusters[0].message_completion[0] - 1;
  expect(!perfbench::check_replay(model, bounds.value(), &loose, sim.value()).empty(),
         "5. exact bound above the holistic one caught");
}

}  // namespace

int main() {
  single_bus_checks();
  replay_checks();
  std::cout << (failures ? "checks_test: FAILED\n" : "checks_test: all passed\n");
  return failures ? 1 : 0;
}
