// Exact schedule-space backend bench and conformance gate.  Analyses
// minimal start configurations of the Section 7 single-cluster population
// (the fig9 workloads) and of MultiCluster scenarios (2..4 gateway-chained
// clusters) with both the holistic and the exact (DYN schedule-space)
// backend, then replays each winner on the discrete-event network
// simulator, reporting exploration throughput (states/s) and the
// holistic-vs-exact pessimism gap per system (BENCH_exact.json, published
// by the perf-smoke CI job).
//
// Three perf phases follow the population sweep:
//
// Worker-count identity: re-analyses the whole population at
// ExactOptions::jobs 1/2/4/8.  The exploration is serial and ignores the
// knob, so every per-cluster outcome (bounds, cost, fallback, engine
// counters) must be bit-identical to the jobs=1 reference.
//
// Engine vs oracle: explores every cluster of the population (minimal
// start, converged holistic jitters) with the production engine and with
// the sharded, mask-enumerating reference engine in
// tests/exact_space_oracle.hpp, on this thread, and compares results and
// states/s.  The ratio is a same-process, same-input comparison, so it
// does not depend on the runner's speed or core count.
//
// Exact-delta warm replay (mirroring bench_delta_eval): an SA-style
// neighbour-move trajectory over fig9 systems is recorded once to warm the
// evaluator's exact-space store, then replayed bit-identically on two
// evaluators — cold (reuse_base_frontier off, re-explores every move) and
// warm (reuse on, replays cached frontiers).  Whole-config memoization is
// off on both sides so the reuse measured is exploration reuse, not a hash
// lookup.  The reuse ratio is cold/warm states explored during the replay.
//
// The CI-facing --check gate asserts, over every analysed system:
// (1) sandwich soundness — observed <= exact <= holistic for every ET
//     activity of every system where the exploration ran, and
// (2) usefulness — the aggregate mean pessimism gap over the non-fallback
//     systems is strictly positive (the backend refines something), and
// (3) no silent fallback — a budget-exceeded or otherwise skipped cluster
//     is visible in the per-system fallback column and the JSON, and
// (4) determinism — jobs 1/2/4/8 outcomes bit-identical, and
// (5) reuse — the warm-replay reuse ratio clears --min-reuse-ratio, and
// (6) engine speed — the production engine's states/s clears
//     --min-speedup x the oracle's, with bit-identical results.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "exact_space_oracle.hpp"
#include "flexopt/analysis/exact/schedule_space.hpp"
#include "flexopt/analysis/exact/exact_analysis.hpp"
#include "flexopt/analysis/multicluster.hpp"
#include "flexopt/core/config_builder.hpp"
#include "flexopt/core/sa.hpp"
#include "flexopt/gen/scenario.hpp"
#include "flexopt/io/json_writer.hpp"
#include "flexopt/model/system_model.hpp"
#include "flexopt/netsim/netsim.hpp"
#include "flexopt/util/rng.hpp"
#include "flexopt/util/table.hpp"

using namespace flexopt;
using namespace flexopt::bench;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

struct SystemRow {
  std::string workload;
  int index = 0;
  int clusters = 0;
  std::size_t tasks = 0;
  std::size_t messages = 0;
  std::size_t activities = 0;   ///< ET activities in the pessimism report
  std::size_t refined = 0;
  double mean_gap = 0.0;
  double max_gap = 0.0;
  std::uint64_t states = 0;
  std::uint64_t merged = 0;
  double wall_seconds = 0.0;
  double states_per_second = 0.0;
  bool fallback = false;
  std::string fallback_reason = "none";
  bool sandwich_ok = false;  ///< exact <= holistic on every entry
  bool sim_sound = false;    ///< observed <= exact on every simulated entry
};

/// Analyses one system holistically and exactly under its per-cluster
/// minimal start configuration, then simulates against the exact bounds.
/// Returns false when the system is skipped (infeasible minimal bounds);
/// hard failures (generation, projection, analysis, simulation) throw.
bool analyze_exact_system(const Application& app, const BusParams& params,
                          const ExactOptions& exact_options, SystemRow& row) {
  auto model = SystemModel::build(std::make_shared<const Application>(app));
  if (!model.ok()) throw std::runtime_error(model.error().message);
  SystemConfig config;
  for (std::size_t c = 0; c < model.value().cluster_count(); ++c) {
    const StartConfig start = minimal_start_config(*model.value().cluster_app(c), params);
    if (!start.bounds.feasible()) return false;
    config.clusters.push_back(ClusterConfig::flexray_bus(start.config));
  }
  auto layouts = build_system_layouts(model.value(), params, config);
  if (!layouts.ok()) throw std::runtime_error(layouts.error().message);

  AnalysisOptions options;
  options.mode = AnalysisMode::Exact;
  options.exact = exact_options;
  const auto started = std::chrono::steady_clock::now();
  auto exact = analyze_multicluster(model.value(), layouts.value(), options);
  const double elapsed = seconds_since(started);
  if (!exact.ok()) throw std::runtime_error(exact.error().message);

  std::vector<const Application*> apps;
  for (std::size_t c = 0; c < model.value().cluster_count(); ++c) {
    apps.push_back(model.value().cluster_app(c).get());
  }
  const PessimismReport pessimism = make_pessimism_report(apps, exact.value().clusters);

  row.clusters = static_cast<int>(model.value().cluster_count());
  row.tasks = app.task_count();
  row.messages = app.message_count();
  row.activities = pessimism.activities;
  row.refined = pessimism.refined;
  row.mean_gap = pessimism.mean_gap;
  row.max_gap = pessimism.max_gap;
  row.states = pessimism.explored_states;
  row.merged = pessimism.merged_states;
  row.wall_seconds = elapsed;
  row.states_per_second =
      elapsed > 0.0 ? static_cast<double>(pessimism.explored_states) / elapsed : 0.0;
  row.fallback = pessimism.any_fallback;
  for (const ExactFallback fallback : pessimism.cluster_fallbacks) {
    if (fallback != ExactFallback::None) {
      row.fallback_reason = to_string(fallback);
      break;
    }
  }
  row.sandwich_ok = true;
  for (const PessimismActivity& entry : pessimism.entries) {
    row.sandwich_ok = row.sandwich_ok && entry.exact <= entry.holistic;
  }

  // Observed <= exact: the simulator replays real schedules, so its worst
  // observations must stay under the refined bounds too.
  auto sim = simulate_network(model.value(), layouts.value(), exact.value());
  if (!sim.ok()) throw std::runtime_error(sim.error().message);
  const SoundnessReport verdict =
      check_soundness(model.value(), exact.value(), sim.value());
  row.sim_sound = verdict.sound && sim.value().precedence_violations == 0;
  return true;
}

/// One system of the bench population, retained for the replay phases.
struct PopEntry {
  std::string workload;
  int index = 0;
  Application app;
};

/// Everything the jobs-identity comparison looks at for one cluster: the
/// refined bounds and cost plus the engine's own counters — a worker-count
/// change must not move any of it by a single bit.
struct ClusterSig {
  ExactFallback fallback = ExactFallback::None;
  std::uint64_t explored = 0;
  std::uint64_t merged = 0;
  std::uint64_t transitions = 0;
  std::uint64_t refined = 0;
  double cost = 0.0;
  std::vector<Time> tasks;
  std::vector<Time> messages;
  friend bool operator==(const ClusterSig&, const ClusterSig&) = default;
};

/// Exact multicluster analysis under the minimal start (no simulation),
/// appending one ClusterSig per cluster and accumulating explored states
/// and wall time.  Returns false when the system is skipped.
bool exact_signatures(const Application& app, const BusParams& params,
                      const ExactOptions& exact_options, std::vector<ClusterSig>& sigs,
                      std::uint64_t& states, double& wall) {
  auto model = SystemModel::build(std::make_shared<const Application>(app));
  if (!model.ok()) throw std::runtime_error(model.error().message);
  SystemConfig config;
  for (std::size_t c = 0; c < model.value().cluster_count(); ++c) {
    const StartConfig start = minimal_start_config(*model.value().cluster_app(c), params);
    if (!start.bounds.feasible()) return false;
    config.clusters.push_back(ClusterConfig::flexray_bus(start.config));
  }
  auto layouts = build_system_layouts(model.value(), params, config);
  if (!layouts.ok()) throw std::runtime_error(layouts.error().message);
  AnalysisOptions options;
  options.mode = AnalysisMode::Exact;
  options.exact = exact_options;
  const auto started = std::chrono::steady_clock::now();
  auto exact = analyze_multicluster(model.value(), layouts.value(), options);
  wall += seconds_since(started);
  if (!exact.ok()) throw std::runtime_error(exact.error().message);
  for (const AnalysisResult& cluster : exact.value().clusters) {
    ClusterSig sig;
    if (cluster.exact != nullptr) {
      sig.fallback = cluster.exact->fallback;
      sig.explored = cluster.exact->explored_states;
      sig.merged = cluster.exact->merged_states;
      sig.transitions = cluster.exact->transitions;
      sig.refined = cluster.exact->refined_messages;
      states += cluster.exact->explored_states;
    }
    sig.cost = cluster.cost.value;
    sig.tasks = cluster.task_completion;
    sig.messages = cluster.message_completion;
    sigs.push_back(std::move(sig));
  }
  return true;
}

/// One worker-count replay of the population.
struct ScalingPoint {
  int jobs = 1;
  std::uint64_t states = 0;
  double wall = 0.0;
  double rate = 0.0;
  bool identical = true;  ///< vs the jobs=1 reference signatures
};

/// Engine-vs-oracle totals over every explored cluster.
struct OracleComparison {
  std::size_t clusters = 0;
  std::uint64_t states = 0;  ///< explored states per pass (both engines)
  bool identical = true;
};

/// Explores every FlexRay cluster of `app` under its minimal start with
/// both engines, `passes` times each, accumulating per-pass wall time into
/// `engine_wall` / `oracle_wall` (indexed by pass).  Skips a system whose
/// minimal start is infeasible.
void compare_with_oracle(const Application& app, const BusParams& params,
                         const ExactOptions& exact_options, int passes, OracleComparison& out,
                         std::vector<double>& engine_wall, std::vector<double>& oracle_wall) {
  auto model = SystemModel::build(std::make_shared<const Application>(app));
  if (!model.ok()) throw std::runtime_error(model.error().message);
  SystemConfig config;
  for (std::size_t c = 0; c < model.value().cluster_count(); ++c) {
    const StartConfig start = minimal_start_config(*model.value().cluster_app(c), params);
    if (!start.bounds.feasible()) return;
    config.clusters.push_back(ClusterConfig::flexray_bus(start.config));
  }
  auto layouts = build_system_layouts(model.value(), params, config);
  if (!layouts.ok()) throw std::runtime_error(layouts.error().message);
  const AnalysisOptions options;
  auto holistic = analyze_multicluster(model.value(), layouts.value(), options);
  if (!holistic.ok()) throw std::runtime_error(holistic.error().message);
  for (std::size_t c = 0; c < model.value().cluster_count(); ++c) {
    const auto horizon = analysis_horizon(*model.value().cluster_app(c), options);
    if (!horizon.ok()) throw std::runtime_error(horizon.error().message);
    const BusLayout& layout = layouts.value()[c].flexray();
    const std::vector<Time>& jitter = holistic.value().clusters[c].message_jitter;
    ++out.clusters;
    for (int pass = 0; pass < passes; ++pass) {
      auto started = std::chrono::steady_clock::now();
      const ScheduleSpaceResult got =
          explore_dyn_schedule_space(layout, jitter, horizon.value(), exact_options);
      engine_wall[static_cast<std::size_t>(pass)] += seconds_since(started);
      started = std::chrono::steady_clock::now();
      const ScheduleSpaceResult want =
          testing::exact_space_oracle(layout, jitter, horizon.value(), exact_options);
      oracle_wall[static_cast<std::size_t>(pass)] += seconds_since(started);
      if (pass == 0) out.states += want.explored_states;
      out.identical = out.identical && got.fallback == want.fallback &&
                      got.worst_completion == want.worst_completion &&
                      got.explored_states == want.explored_states &&
                      got.merged_states == want.merged_states &&
                      got.transitions == want.transitions;
    }
  }
}

/// Warm-replay exact-delta measurement for one fig9 system.
struct DeltaResult {
  int nodes = 0;
  long proposed = 0;
  long accepted = 0;
  std::uint64_t cold_states = 0;  ///< explored during the measured replay, reuse off
  std::uint64_t warm_states = 0;  ///< explored during the measured replay, reuse on
  std::uint64_t warm_reused = 0;  ///< frontier cache hits during the replay
  bool identical = true;          ///< cold and warm costs bit-identical on every move
};

/// Drives the same SA-style move/acceptance stream through a cold evaluator
/// (reuse_base_frontier off) and a warm one (reuse on) twice: a recording
/// pass that fills the warm evaluator's exact-space store, then the
/// measured bit-identical replay.  Memoization is off on both sides, so a
/// replayed move re-runs the analysis — the only thing the warm side skips
/// is the schedule-space exploration itself.
DeltaResult run_exact_delta(const Application& app, const BusParams& params,
                            const ExactOptions& exact_options, int nodes, long moves) {
  DeltaResult r;
  r.nodes = nodes;

  AnalysisOptions cold_opts;
  cold_opts.mode = AnalysisMode::Exact;
  cold_opts.exact = exact_options;
  cold_opts.exact.jobs = 1;
  cold_opts.exact.reuse_base_frontier = false;
  AnalysisOptions warm_opts = cold_opts;
  warm_opts.exact.reuse_base_frontier = true;
  EvaluatorOptions eopts;
  eopts.cache_enabled = false;
  CostEvaluator cold(app, params, cold_opts, eopts);
  CostEvaluator warm(app, params, warm_opts, eopts);

  const StartConfig start = minimal_start_config(app, params);
  if (!start.bounds.feasible()) return r;
  const std::vector<NodeId>& senders = start.st_senders;
  const DynBounds& bounds = start.bounds;

  const auto run_pass = [&](bool measured) {
    BusConfig current = start.config;
    const auto c0 = cold.evaluate(current);
    const auto w0 = warm.evaluate(current);
    if (c0.valid != w0.valid || (c0.valid && c0.cost.value != w0.cost.value)) {
      r.identical = false;
    }
    double current_cost = c0.valid ? c0.cost.value : kInvalidConfigCost;

    // Same seed shape as bench_delta_eval: the streams are bit-identical
    // across passes, so the replay revisits exactly the recorded geometries.
    Rng move_rng(0x5eedu + static_cast<std::uint64_t>(nodes));
    Rng accept_rng(0xaccu + static_cast<std::uint64_t>(nodes));
    const double temperature = std::max(1.0, std::abs(current_cost) * 0.1);

    for (long i = 0; i < moves; ++i) {
      BusConfig neighbour = current;
      bool moved = false;
      for (int attempt = 0; attempt < 8 && !moved; ++attempt) {
        moved = random_neighbour_move(neighbour, app, params, move_rng, senders,
                                      bounds.min_minislots, SpecLimits::kMaxMinislots);
      }
      if (!moved) continue;
      DeltaMove cold_move = DeltaMove::between(current, BusConfig(neighbour));
      DeltaMove warm_move = DeltaMove::between(current, std::move(neighbour));

      const auto ec = cold.evaluate_delta(current, cold_move);
      const auto ew = warm.evaluate_delta(current, warm_move);
      if (measured) ++r.proposed;
      if (ec.valid != ew.valid || (ec.valid && ec.cost.value != ew.cost.value)) {
        r.identical = false;
      }

      const double cost = ec.valid ? ec.cost.value : kInvalidConfigCost;
      const double delta = cost - current_cost;
      if (delta <= 0.0 ||
          accept_rng.uniform_real(0.0, 1.0) < std::exp(-delta / temperature)) {
        current = std::move(cold_move.config);
        current_cost = cost;
        if (measured) ++r.accepted;
      }
    }
  };

  run_pass(/*measured=*/false);  // recording: fills the exact-space store
  const EvaluatorWorkStats cold_before = cold.work_stats();
  const EvaluatorWorkStats warm_before = warm.work_stats();
  run_pass(/*measured=*/true);  // measured warm replay
  const AnalysisWorkCounters cold_work = cold.work_stats().since(cold_before).analysis;
  const AnalysisWorkCounters warm_work = warm.work_stats().since(warm_before).analysis;
  r.cold_states = cold_work.exact_states_explored;
  r.warm_states = warm_work.exact_states_explored;
  r.warm_reused = warm_work.exact_frontier_reused;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  bool check = false;
  ExactOptions exact_options;
  double min_reuse_ratio = 2.0;
  double min_speedup = 3.0;
  long moves = full_scale() ? 400 : 120;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--max-states" && i + 1 < argc) {
      exact_options.max_states = std::stoull(argv[++i]);
    } else if (arg == "--min-reuse-ratio" && i + 1 < argc) {
      min_reuse_ratio = std::stod(argv[++i]);
    } else if (arg == "--min-speedup" && i + 1 < argc) {
      min_speedup = std::stod(argv[++i]);
    } else if (arg == "--moves" && i + 1 < argc) {
      moves = std::stol(argv[++i]);
    } else {
      std::cerr << "usage: bench_exact [--out FILE] [--check] [--max-states N]\n"
                   "                   [--min-reuse-ratio R] [--min-speedup S] [--moves N]\n";
      return 2;
    }
  }

  std::cout << "== Exact schedule-space backend: throughput and pessimism gate ==\n";
  const Scale scale = Scale::current();
  scale.print(std::cout);
  const BusParams params = section7_params();
  const int systems_per_size = full_scale() ? 6 : 2;

  std::vector<SystemRow> rows;
  std::vector<PopEntry> population;
  std::size_t skipped = 0;
  bool all_ok = true;

  // Fig. 9 population: the Section 7 single-cluster synthetic systems.
  for (int nodes = scale.min_nodes; nodes <= scale.max_nodes; ++nodes) {
    for (int index = 0; index < systems_per_size; ++index) {
      auto app = section7_system(nodes, index);
      if (!app.ok()) {
        ++skipped;
        continue;
      }
      SystemRow row;
      row.workload = "fig9/n" + std::to_string(nodes);
      row.index = index;
      try {
        if (!analyze_exact_system(app.value(), params, exact_options, row)) {
          ++skipped;
          continue;
        }
      } catch (const std::exception& e) {
        std::cerr << row.workload << "#" << index << ": " << e.what() << "\n";
        all_ok = false;
        continue;
      }
      rows.push_back(row);
      population.push_back({row.workload, index, app.value()});
    }
  }

  // Multi-cluster population: the bench_multicluster workload axis.
  for (int clusters = 2; clusters <= 4; ++clusters) {
    for (int index = 0; index < systems_per_size; ++index) {
      ScenarioSpec spec;
      spec.topology = Topology::MultiCluster;
      spec.traffic = TrafficMix::DynOnly;
      spec.clusters = clusters;
      spec.inter_cluster_share = 0.25;
      spec.base.nodes = clusters * 2;
      spec.base.tasks_per_node = 4;
      spec.base.tasks_per_graph = 4;
      spec.base.deadline_factor = 2.0;
      spec.base.seed = static_cast<std::uint64_t>(1000 * clusters + index);
      auto app = generate_scenario(spec, params);
      if (!app.ok()) {
        ++skipped;
        continue;
      }
      SystemRow row;
      row.workload = "mc/c" + std::to_string(clusters);
      row.index = index;
      try {
        if (!analyze_exact_system(app.value(), params, exact_options, row)) {
          ++skipped;
          continue;
        }
      } catch (const std::exception& e) {
        std::cerr << row.workload << "#" << index << ": " << e.what() << "\n";
        all_ok = false;
        continue;
      }
      rows.push_back(row);
      population.push_back({row.workload, index, app.value()});
    }
  }

  std::uint64_t total_states = 0;
  double total_seconds = 0.0;
  double gap_sum = 0.0;
  std::size_t gap_systems = 0;
  Table table({"workload", "system", "clusters", "activities", "refined", "gap mean",
               "states", "states/s", "fallback", "sandwich", "sim"});
  for (const SystemRow& r : rows) {
    total_states += r.states;
    total_seconds += r.wall_seconds;
    if (!r.fallback) {
      gap_sum += r.mean_gap;
      ++gap_systems;
    }
    table.add_row({r.workload, std::to_string(r.index), std::to_string(r.clusters),
                   std::to_string(r.activities), std::to_string(r.refined),
                   fmt_percent(r.mean_gap), std::to_string(r.states),
                   fmt_double(r.states_per_second, 0), r.fallback_reason,
                   r.sandwich_ok ? "ok" : "VIOLATION", r.sim_sound ? "ok" : "VIOLATION"});
    if (!r.sandwich_ok || !r.sim_sound) all_ok = false;
  }
  table.print(std::cout);
  const double aggregate_rate =
      total_seconds > 0.0 ? static_cast<double>(total_states) / total_seconds : 0.0;
  const double aggregate_gap =
      gap_systems > 0 ? gap_sum / static_cast<double>(gap_systems) : 0.0;
  std::cout << rows.size() << " systems analysed (" << skipped << " skipped), "
            << total_states << " states, " << fmt_double(aggregate_rate, 0)
            << " states/s aggregate, mean pessimism gap " << fmt_percent(aggregate_gap)
            << " over " << gap_systems << " non-fallback systems\n";

  // ---- worker-count identity: jobs 1/2/4/8 are accepted and ignored ------
  std::cout << "\n== Worker-count identity (ExactOptions::jobs, ignored) ==\n";
  std::vector<ScalingPoint> scaling;
  std::vector<std::vector<ClusterSig>> reference_sigs;  // one entry per system, jobs=1
  bool jobs_identical = true;
  for (const int jobs : {1, 2, 4, 8}) {
    ScalingPoint point;
    point.jobs = jobs;
    ExactOptions scaled = exact_options;
    scaled.jobs = jobs;
    std::size_t system = 0;
    try {
      for (const PopEntry& entry : population) {
        std::vector<ClusterSig> sigs;
        if (!exact_signatures(entry.app, params, scaled, sigs, point.states, point.wall)) {
          continue;
        }
        if (jobs == 1) {
          reference_sigs.push_back(std::move(sigs));
        } else if (system < reference_sigs.size() && !(sigs == reference_sigs[system])) {
          std::cerr << entry.workload << "#" << entry.index << ": jobs=" << jobs
                    << " result differs from jobs=1\n";
          point.identical = false;
        }
        ++system;
      }
    } catch (const std::exception& e) {
      std::cerr << "scaling jobs=" << jobs << ": " << e.what() << "\n";
      all_ok = false;
    }
    point.rate = point.wall > 0.0 ? static_cast<double>(point.states) / point.wall : 0.0;
    jobs_identical = jobs_identical && point.identical;
    scaling.push_back(point);
  }
  Table scaling_table({"jobs", "states", "wall (s)", "states/s", "identical"});
  for (const ScalingPoint& point : scaling) {
    scaling_table.add_row({std::to_string(point.jobs), std::to_string(point.states),
                           fmt_double(point.wall, 3), fmt_double(point.rate, 0),
                           point.identical ? "yes" : "NO"});
  }
  scaling_table.print(std::cout);

  // ---- engine vs oracle: same inputs, same thread, states/s ratio --------
  std::cout << "\n== Engine vs oracle (tests/exact_space_oracle.hpp) ==\n";
  constexpr int kOraclePasses = 3;
  OracleComparison oracle;
  std::vector<double> engine_walls(kOraclePasses, 0.0);
  std::vector<double> oracle_walls(kOraclePasses, 0.0);
  try {
    for (const PopEntry& entry : population) {
      compare_with_oracle(entry.app, params, exact_options, kOraclePasses, oracle, engine_walls,
                          oracle_walls);
    }
  } catch (const std::exception& e) {
    std::cerr << "engine vs oracle: " << e.what() << "\n";
    all_ok = false;
  }
  const auto best_rate = [&](const std::vector<double>& walls) {
    const double wall = *std::min_element(walls.begin(), walls.end());
    return wall > 0.0 ? static_cast<double>(oracle.states) / wall : 0.0;
  };
  const double engine_rate = best_rate(engine_walls);
  const double oracle_rate = best_rate(oracle_walls);
  const double speedup = oracle_rate > 0.0 ? engine_rate / oracle_rate : 0.0;
  std::cout << oracle.clusters << " clusters, " << oracle.states << " states per pass, best of "
            << kOraclePasses << ": engine " << fmt_double(engine_rate, 0) << " states/s, oracle "
            << fmt_double(oracle_rate, 0) << " states/s, speedup " << fmt_double(speedup, 2)
            << "x (floor " << fmt_double(min_speedup, 1) << "x), results "
            << (oracle.identical ? "identical" : "DIFFER") << "\n";

  // ---- exact-delta warm replay: cross-move exploration reuse --------------
  std::cout << "\n== Exact-delta warm replay (reuse_base_frontier, memo cache off) ==\n";
  std::vector<DeltaResult> delta_results;
  bool delta_identical = true;
  for (const int nodes : {4, 5}) {
    const auto app = section7_system(nodes, 0);
    if (!app.ok()) {
      std::cerr << "generator failed: " << app.error().message << "\n";
      all_ok = false;
      continue;
    }
    DeltaResult r = run_exact_delta(app.value(), params, exact_options, nodes, moves);
    if (r.proposed == 0) continue;
    delta_identical = delta_identical && r.identical;
    delta_results.push_back(std::move(r));
  }
  Table delta_table({"nodes", "proposed", "accepted", "cold states", "warm states",
                     "reused", "ratio", "identical"});
  std::uint64_t delta_cold = 0;
  std::uint64_t delta_warm = 0;
  std::uint64_t delta_reused = 0;
  for (const DeltaResult& r : delta_results) {
    const double system_ratio = static_cast<double>(r.cold_states) /
                                static_cast<double>(std::max<std::uint64_t>(1, r.warm_states));
    delta_table.add_row({std::to_string(r.nodes), std::to_string(r.proposed),
                         std::to_string(r.accepted), std::to_string(r.cold_states),
                         std::to_string(r.warm_states), std::to_string(r.warm_reused),
                         fmt_double(system_ratio, 1), r.identical ? "yes" : "NO"});
    delta_cold += r.cold_states;
    delta_warm += r.warm_states;
    delta_reused += r.warm_reused;
  }
  delta_table.print(std::cout);
  const double reuse_ratio = static_cast<double>(delta_cold) /
                             static_cast<double>(std::max<std::uint64_t>(1, delta_warm));
  std::cout << "reuse ratio (cold/warm states during replay): " << fmt_double(reuse_ratio, 1)
            << "x, " << delta_reused << " frontiers reused (floor "
            << fmt_double(min_reuse_ratio, 1) << "x)\n";

  if (!out_path.empty()) {
    JsonWriter json;
    json.begin_object();
    json.field("bench", "exact");
    json.field("max_states", exact_options.max_states);
    json.field("systems", rows.size());
    json.field("skipped", skipped);
    json.field("total_states", total_states);
    json.field("states_per_second", aggregate_rate);
    json.field("mean_pessimism_gap", aggregate_gap);
    json.key("results").begin_array();
    for (const SystemRow& r : rows) {
      json.begin_object()
          .field("workload", r.workload)
          .field("index", r.index)
          .field("clusters", r.clusters)
          .field("tasks", r.tasks)
          .field("messages", r.messages)
          .field("activities", r.activities)
          .field("refined", r.refined)
          .field("mean_gap", r.mean_gap)
          .field("max_gap", r.max_gap)
          .field("states", r.states)
          .field("merged_states", r.merged)
          .field("wall_seconds", r.wall_seconds)
          .field("states_per_second", r.states_per_second)
          .field("fallback", r.fallback_reason)
          .field("sandwich_ok", r.sandwich_ok)
          .field("sim_sound", r.sim_sound)
          .end_object();
    }
    json.end_array();
    // Schema additions: the worker-count replays, the engine-vs-oracle
    // block, the exact-delta warm-replay block, and the gate parameters.
    json.key("scaling").begin_array();
    for (const ScalingPoint& point : scaling) {
      json.begin_object()
          .field("jobs", point.jobs)
          .field("states", point.states)
          .field("wall_seconds", point.wall)
          .field("states_per_second", point.rate)
          .field("identical", point.identical)
          .end_object();
    }
    json.end_array();
    json.key("oracle")
        .begin_object()
        .field("clusters", oracle.clusters)
        .field("states", oracle.states)
        .field("engine_states_per_second", engine_rate)
        .field("oracle_states_per_second", oracle_rate)
        .field("speedup", speedup)
        .field("identical", oracle.identical)
        .end_object();
    json.key("delta").begin_object();
    json.field("moves_per_system", moves);
    json.key("systems").begin_array();
    for (const DeltaResult& r : delta_results) {
      json.begin_object()
          .field("nodes", r.nodes)
          .field("proposed_moves", r.proposed)
          .field("accepted_moves", r.accepted)
          .field("cold_states", r.cold_states)
          .field("warm_states", r.warm_states)
          .field("frontier_reused", r.warm_reused)
          .field("identical", r.identical)
          .end_object();
    }
    json.end_array();
    json.field("cold_states", delta_cold)
        .field("warm_states", delta_warm)
        .field("frontier_reused", delta_reused)
        .field("reuse_ratio", reuse_ratio)
        .field("identical", delta_identical);
    json.end_object();  // delta
    json.key("gate")
        .begin_object()
        .field("min_reuse_ratio", min_reuse_ratio)
        .field("min_speedup", min_speedup)
        .end_object();
    json.end_object();
    std::ofstream out(out_path, std::ios::binary);
    out << json.str() << "\n";
    if (!out) {
      std::cerr << "cannot write " << out_path << "\n";
      return 2;
    }
    std::cout << "wrote " << out_path << "\n";
  }

  if (check) {
    const bool gap_ok = gap_systems > 0 && aggregate_gap > 0.0;
    const bool reuse_ok = !delta_results.empty() && delta_identical &&
                          reuse_ratio >= min_reuse_ratio;
    const bool speedup_ok = oracle.identical && speedup >= min_speedup;
    if (rows.empty() || !all_ok || !gap_ok || !jobs_identical || !reuse_ok || !speedup_ok) {
      std::cerr << "CHECK FAILED: " << rows.size() << " systems, all_ok=" << all_ok
                << ", non-fallback systems=" << gap_systems
                << ", mean gap=" << aggregate_gap << "\n";
      if (!jobs_identical) std::cerr << "  jobs 1/2/4/8 results diverged\n";
      if (!reuse_ok) {
        std::cerr << "  exact-delta reuse ratio " << fmt_double(reuse_ratio, 1)
                  << "x below floor " << fmt_double(min_reuse_ratio, 1)
                  << "x (identical=" << delta_identical << ")\n";
      }
      if (!speedup_ok) {
        std::cerr << "  engine vs oracle: speedup " << fmt_double(speedup, 2) << "x (floor "
                  << fmt_double(min_speedup, 1) << "x), results "
                  << (oracle.identical ? "identical" : "differ") << "\n";
      }
      return 1;
    }
    std::cout << "CHECK OK: observed <= exact <= holistic on " << rows.size()
              << " systems, mean pessimism gap " << fmt_percent(aggregate_gap)
              << ", jobs 1/2/4/8 bit-identical, reuse ratio " << fmt_double(reuse_ratio, 1)
              << "x, engine " << fmt_double(speedup, 2) << "x the oracle's states/s\n";
  }
  return 0;
}
