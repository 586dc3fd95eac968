#include "flexopt/core/mapping.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <numeric>
#include <string>
#include <utility>

#include "flexopt/core/obc.hpp"
#include "flexopt/util/rng.hpp"

namespace flexopt {

Expected<bool> LogicalApplication::validate() const {
  if (node_count < 2) return make_error("logical application needs at least 2 nodes");
  if (graphs.empty() || tasks.empty()) return make_error("logical application is empty");
  for (const LogicalGraph& g : graphs) {
    if (g.period <= 0 || g.deadline <= 0) {
      return make_error("graph '" + g.name + "' has non-positive period/deadline");
    }
  }
  for (const LogicalTask& t : tasks) {
    if (t.graph >= graphs.size()) return make_error("task '" + t.name + "' in unknown graph");
    if (t.wcet <= 0) return make_error("task '" + t.name + "' has non-positive WCET");
  }
  for (const LogicalFlow& f : flows) {
    if (f.from >= tasks.size() || f.to >= tasks.size()) {
      return make_error("flow references unknown task");
    }
    if (tasks[f.from].graph != tasks[f.to].graph) {
      return make_error("flow crosses task graphs");
    }
    if (f.size_bytes <= 0) return make_error("flow has non-positive size");
  }
  return true;
}

Expected<Application> LogicalApplication::materialize(std::span<const int> mapping) const {
  if (auto ok = validate(); !ok.ok()) return ok.error();
  if (mapping.size() != tasks.size()) return make_error("mapping size mismatch");
  for (const int node : mapping) {
    if (node < 0 || node >= node_count) return make_error("mapping assigns unknown node");
  }

  Application app;
  for (int n = 0; n < node_count; ++n) {
    // Appended rather than "N" + to_string(n): GCC 12's inliner raises a
    // spurious -Wrestrict on operator+(const char*, std::string&&).
    std::string name = "N";
    name += std::to_string(n);
    app.add_node(name);
  }
  std::vector<GraphId> graph_ids;
  graph_ids.reserve(graphs.size());
  for (const LogicalGraph& g : graphs) {
    graph_ids.push_back(app.add_graph(g.name, g.period, g.deadline));
  }
  std::vector<TaskId> task_ids;
  task_ids.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const LogicalTask& t = tasks[i];
    const bool tt = graphs[t.graph].time_triggered;
    task_ids.push_back(app.add_task(graph_ids[t.graph], t.name,
                                    static_cast<NodeId>(mapping[i]), t.wcet,
                                    tt ? TaskPolicy::Scs : TaskPolicy::Fps, t.priority));
  }
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const LogicalFlow& f = flows[i];
    if (mapping[f.from] == mapping[f.to]) {
      app.add_dependency(task_ids[f.from], task_ids[f.to]);
    } else {
      const bool tt = graphs[tasks[f.from].graph].time_triggered;
      app.add_message(graph_ids[tasks[f.from].graph],
                      "flow" + std::to_string(i), task_ids[f.from], task_ids[f.to],
                      f.size_bytes, tt ? MessageClass::Static : MessageClass::Dynamic,
                      f.priority);
    }
  }
  if (auto fin = app.finalize(); !fin.ok()) return fin.error();
  return app;
}

std::vector<int> LogicalApplication::balanced_mapping() const {
  std::vector<double> load(static_cast<std::size_t>(node_count), 0.0);
  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), 0);
  auto density = [&](std::size_t i) {
    return static_cast<double>(tasks[i].wcet) /
           static_cast<double>(graphs[tasks[i].graph].period);
  };
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return density(a) > density(b); });
  std::vector<int> mapping(tasks.size(), 0);
  for (const std::size_t i : order) {
    const auto lightest =
        std::min_element(load.begin(), load.end()) - load.begin();
    mapping[i] = static_cast<int>(lightest);
    load[static_cast<std::size_t>(lightest)] += density(i);
  }
  return mapping;
}

Expected<MappingOutcome> optimize_mapping(const LogicalApplication& logical,
                                          const BusParams& params,
                                          const AnalysisOptions& analysis,
                                          DynSegmentStrategy& dyn_strategy,
                                          const MappingOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();
  if (auto ok = logical.validate(); !ok.ok()) return ok.error();
  Rng rng(options.seed);

  MappingOutcome outcome;

  /// Scores one mapping with a full bus access optimisation; returns the
  /// bus outcome (invalid-cost outcome if materialisation fails).
  auto score = [&](const std::vector<int>& mapping) -> OptimizationOutcome {
    ++outcome.mappings_tried;
    auto app = logical.materialize(mapping);
    if (!app.ok()) {
      OptimizationOutcome bad;
      bad.algorithm = "mapping/unmaterialisable";
      return bad;
    }
    // Move the materialised application straight into shared ownership —
    // one mapping candidate = one evaluator, no extra copy.
    CostEvaluator evaluator(std::make_shared<const Application>(std::move(app).value()),
                            params, analysis);
    OptimizationOutcome bus =
        optimize_obc(evaluator, SystemConfig::single(BusConfig{}), 0, dyn_strategy);
    outcome.evaluations += bus.evaluations;
    return bus;
  };

  std::vector<int> best_mapping = logical.balanced_mapping();
  outcome.bus = score(best_mapping);
  outcome.mapping = best_mapping;

  for (int restart = 0; restart < std::max(1, options.restarts); ++restart) {
    std::vector<int> current = restart == 0 ? best_mapping : logical.balanced_mapping();
    if (restart > 0) {
      // Perturb the balanced start so restarts explore different basins.
      for (int k = 0; k < 3; ++k) {
        current[rng.index(current.size())] =
            static_cast<int>(rng.index(static_cast<std::size_t>(logical.node_count)));
      }
    }
    OptimizationOutcome current_bus = restart == 0 ? outcome.bus : score(current);
    if (current_bus.cost.value < outcome.bus.cost.value) {
      outcome.bus = current_bus;
      outcome.mapping = current;
    }

    for (int move = 0; move < options.moves_per_restart; ++move) {
      if (options.stop_at_first_feasible && outcome.bus.feasible) break;
      std::vector<int> neighbour = current;
      const std::size_t task = rng.index(neighbour.size());
      int node = neighbour[task];
      while (node == neighbour[task]) {
        node = static_cast<int>(rng.index(static_cast<std::size_t>(logical.node_count)));
      }
      neighbour[task] = node;

      const OptimizationOutcome bus = score(neighbour);
      if (bus.cost.value < current_bus.cost.value) {  // first-improvement hill climb
        current = std::move(neighbour);
        current_bus = bus;
        if (bus.cost.value < outcome.bus.cost.value) {
          outcome.bus = bus;
          outcome.mapping = current;
        }
      }
    }
    if (options.stop_at_first_feasible && outcome.bus.feasible) break;
  }

  outcome.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return outcome;
}

}  // namespace flexopt
