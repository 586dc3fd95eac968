#include "layers.hpp"

#include <chrono>
#include <memory>

#include "alloc_counter.hpp"
#include "flexopt/analysis/cost.hpp"
#include "flexopt/analysis/dyn_analysis.hpp"
#include "flexopt/analysis/exact/exact_analysis.hpp"
#include "flexopt/analysis/list_scheduler.hpp"
#include "flexopt/analysis/system_analysis.hpp"
#include "flexopt/core/config_builder.hpp"
#include "flexopt/core/delta_move.hpp"
#include "flexopt/core/dyn_search.hpp"
#include "flexopt/core/evaluator.hpp"
#include "flexopt/core/sa.hpp"
#include "flexopt/flexray/bus_layout.hpp"
#include "flexopt/netsim/netsim.hpp"
#include "flexopt/util/rng.hpp"
#include "reference_kernel.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using namespace flexopt;

constexpr int kTrajectoryMoves = 16;     // neighbour configs per cluster in the replay set
constexpr long kDeltaMoves = 200;        // SA-shaped moves per cluster, per delta pass
constexpr double kMinBlockSeconds = 0.2;
constexpr std::size_t kCurveFitCalls = 16;

/// Keeps the replayed calls' results observable, so none is optimised out.
volatile std::uint64_t g_sink = 0;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Runs `pass` until at least kMinBlockSeconds have passed, bracketed by
/// the reference kernel; returns seconds at reference speed per pass.
template <class Pass>
double per_pass(Tracer& tracer, const std::string& name, Pass&& pass) {
  Tracer::Scope span(tracer, name, "layer");
  const double kernel_before = time_reference_kernel();
  const auto start = Clock::now();
  long passes = 0;
  do {
    pass();
    ++passes;
  } while (seconds_since(start) < kMinBlockSeconds);
  const double raw = seconds_since(start);
  return at_reference_speed(raw, kernel_before, time_reference_kernel()) /
         static_cast<double>(passes);
}

/// One single-bus application of the replay set with its configurations.
struct BusCase {
  std::shared_ptr<const Application> app;
  StartConfig start;
  std::vector<BusConfig> configs;      ///< configs whose layout and analysis succeed
  std::vector<BusLayout> layouts;      ///< one per config
  std::vector<AnalysisResult> results;  ///< holistic result per config
  Time horizon = 0;
};

std::vector<BusCase> bus_cases(const LayerInputs& inputs, const BusParams& params,
                               const AnalysisOptions& options) {
  std::vector<BusCase> cases;
  for (std::size_t s = 0; s < inputs.systems.size(); ++s) {
    const SystemModel& model = *inputs.systems[s].model;
    for (std::size_t c = 0; c < model.cluster_count(); ++c) {
      BusCase bc;
      bc.app = model.cluster_app(c);
      bc.start = minimal_start_config(*bc.app, params);
      auto horizon = analysis_horizon(*bc.app, options);
      if (!horizon.ok()) continue;
      bc.horizon = horizon.value();
      std::vector<BusConfig> candidates{bc.start.config};
      for (const SystemConfig& w : inputs.systems[s].winners) {
        if (c < w.clusters.size() && w.clusters[c].kind == ClusterBackendKind::FlexRay) {
          candidates.push_back(w.clusters[c].flexray);
        }
      }
      if (bc.start.bounds.feasible()) {
        Rng rng(slice_seed(inputs.seed, s * 16 + c));
        BusConfig walk = bc.start.config;
        for (int i = 0; i < kTrajectoryMoves; ++i) {
          if (random_neighbour_move(walk, *bc.app, params, rng, bc.start.st_senders,
                                    bc.start.bounds.min_minislots,
                                    bc.start.bounds.max_minislots)) {
            candidates.push_back(walk);
          }
        }
      }
      for (BusConfig& config : candidates) {
        auto layout = BusLayout::build(*bc.app, params, config);
        if (!layout.ok()) continue;
        auto result = analyze_system(layout.value(), options);
        if (!result.ok()) continue;
        bc.configs.push_back(std::move(config));
        bc.layouts.push_back(std::move(layout).value());
        bc.results.push_back(std::move(result).value());
      }
      if (!bc.configs.empty()) cases.push_back(std::move(bc));
    }
  }
  return cases;
}

}  // namespace

std::map<std::string, double> replay_layers(const LayerInputs& inputs, const BusParams& params,
                                            Tracer& tracer) {
  std::map<std::string, double> out;
  const AnalysisOptions holistic;

  out["gen.systems_ms"] = 1e3 * per_pass(tracer, "gen", inputs.regenerate);

  const std::vector<BusCase> cases = bus_cases(inputs, params, holistic);
  std::size_t pairs = 0;
  for (const BusCase& bc : cases) pairs += bc.configs.size();
  const double n = static_cast<double>(std::max<std::size_t>(pairs, 1));
  std::uint64_t sink = 0;

  out["flexray.layout_us"] = 1e6 / n * per_pass(tracer, "flexray.layout", [&] {
    for (const BusCase& bc : cases) {
      for (const BusConfig& config : bc.configs) {
        sink += BusLayout::build(*bc.app, params, config).ok();
      }
    }
  });
  const double schedule = per_pass(tracer, "analysis.schedule", [&] {
    for (const BusCase& bc : cases) {
      for (const BusLayout& layout : bc.layouts) {
        sink += build_static_schedule(layout, holistic.scheduler).ok();
      }
    }
  });
  const double full = per_pass(tracer, "analysis.holistic", [&] {
    for (const BusCase& bc : cases) {
      for (const BusLayout& layout : bc.layouts) sink += analyze_system(layout, holistic).ok();
    }
  });
  out["analysis.schedule_us"] = 1e6 / n * schedule;
  out["analysis.holistic_us"] = 1e6 / n * full;
  out["analysis.schedule_share"] = schedule / full;
  out["analysis.dyn_us"] = 1e6 / n * per_pass(tracer, "analysis.dyn", [&] {
    for (const BusCase& bc : cases) {
      for (std::size_t i = 0; i < bc.layouts.size(); ++i) {
        for (std::uint32_t m = 0; m < bc.app->message_count(); ++m) {
          if (bc.app->message(MessageId{m}).cls != MessageClass::Dynamic) continue;
          sink += dyn_response_time(bc.layouts[i], MessageId{m}, bc.results[i].message_jitter,
                                    bc.horizon, holistic.dyn_bound)
                      .converged;
        }
      }
    }
  });
  out["analysis.cost_us"] = 1e6 / n * per_pass(tracer, "analysis.cost", [&] {
    for (const BusCase& bc : cases) {
      for (const AnalysisResult& r : bc.results) {
        sink += evaluate_cost(*bc.app, r.task_completion, r.message_completion).schedulable;
      }
    }
  });

  // Delta path, in the shape SA drives it: a recording pass warms the
  // component caches and the thread's arena, the replayed pass is measured.
  {
    Tracer::Scope span(tracer, "analysis.delta", "layer");
    double raw = 0;
    long moves = 0;
    std::uint64_t allocations = 0;
    const double kernel_before = time_reference_kernel();
    for (std::size_t k = 0; k < cases.size(); ++k) {
      const BusCase& bc = cases[k];
      if (!bc.start.bounds.feasible()) continue;
      EvaluatorOptions no_cache;
      no_cache.cache_enabled = false;
      no_cache.threads = 1;
      CostEvaluator evaluator(bc.app, params, holistic, no_cache);
      for (int measured = 0; measured < 2; ++measured) {
        BusConfig current = bc.start.config;
        CostEvaluator::Evaluation accepted = evaluator.evaluate(current);
        if (!accepted.valid) break;
        Rng rng(slice_seed(inputs.seed, 1000 + k));
        for (long i = 0; i < kDeltaMoves; ++i) {
          BusConfig next = current;
          if (!random_neighbour_move(next, *bc.app, params, rng, bc.start.st_senders,
                                     bc.start.bounds.min_minislots,
                                     bc.start.bounds.max_minislots)) {
            continue;
          }
          DeltaMove move = DeltaMove::between(current, std::move(next));
          const std::uint64_t a0 = thread_allocations();
          const auto t0 = Clock::now();
          const CostEvaluator::Evaluation& eval = evaluator.evaluate_delta_fast(accepted, move);
          const double elapsed = seconds_since(t0);
          const std::uint64_t a1 = thread_allocations();
          if (measured && eval.valid) {
            raw += elapsed;
            allocations += a1 - a0;
            ++moves;
          }
          if (eval.valid && eval.cost.value <= accepted.cost.value) {
            accepted = eval;
            current = std::move(move.config);
          }
        }
      }
    }
    const double norm = at_reference_speed(raw, kernel_before, time_reference_kernel());
    const double m = static_cast<double>(std::max<long>(moves, 1));
    out["analysis.delta_us"] = 1e6 * norm / m;
    out["analysis.delta_allocs"] = static_cast<double>(allocations) / m;
  }

  {
    std::vector<const BusCase*> fit;
    for (const BusCase& bc : cases) {
      if (bc.start.bounds.feasible() && fit.size() < kCurveFitCalls) fit.push_back(&bc);
    }
    out["core.curve_fit_ms"] =
        1e3 / static_cast<double>(std::max<std::size_t>(fit.size(), 1)) *
        per_pass(tracer, "core.curve_fit", [&] {
          for (const BusCase* bc : fit) {
            EvaluatorOptions one_thread;
            one_thread.threads = 1;
            CostEvaluator evaluator(bc->app, params, holistic, one_thread);
            CurveFitDynSearch search;
            sink += search
                        .search(evaluator, bc->start.config, bc->start.bounds.min_minislots,
                                bc->start.bounds.max_minislots)
                        .exact;
          }
        });
  }

  // System-level lanes over the start configuration and every winner.
  struct SystemCase {
    const SystemModel* model;
    std::vector<ClusterLayout> layouts;
    MulticlusterResult holistic;
    bool winner;
  };
  std::vector<SystemCase> systems;
  for (const ReplaySystem& rs : inputs.systems) {
    SystemConfig start;
    for (std::size_t c = 0; c < rs.model->cluster_count(); ++c) {
      start.clusters.push_back(minimal_start_cluster_config(
          *rs.model->cluster_app(c), params, ClusterBackendKind::FlexRay));
    }
    std::vector<SystemConfig> configs{start};
    configs.insert(configs.end(), rs.winners.begin(), rs.winners.end());
    for (std::size_t k = 0; k < configs.size(); ++k) {
      auto layouts = build_system_layouts(*rs.model, params, configs[k]);
      if (!layouts.ok()) continue;
      auto result = analyze_multicluster(*rs.model, layouts.value(), holistic);
      if (!result.ok()) continue;
      systems.push_back(
          {rs.model, std::move(layouts).value(), std::move(result).value(), k > 0});
    }
  }
  const double ns = static_cast<double>(std::max<std::size_t>(systems.size(), 1));
  out["analysis.multicluster_us"] = 1e6 / ns * per_pass(tracer, "analysis.multicluster", [&] {
    for (const SystemCase& sc : systems) {
      sink += analyze_multicluster(*sc.model, sc.layouts, holistic).ok();
    }
  });
  std::uint64_t events = 0;
  const double simulate = per_pass(tracer, "netsim.simulate", [&] {
    events = 0;
    for (const SystemCase& sc : systems) {
      auto sim = simulate_network(*sc.model, sc.layouts, sc.holistic);
      if (sim.ok()) events += sim.value().events;
    }
  });
  out["netsim.simulate_ms"] = 1e3 / ns * simulate;
  out["netsim.events_per_s"] = static_cast<double>(events) / simulate;

  out["exact.analyze_ms"] = 0;
  out["exact.states_per_s"] = 0;
  if (inputs.exact) {
    // Winners only: the exact lane re-analyses winners, while a minimal
    // start configuration can drive the exploration to its state budget.
    AnalysisOptions exact;
    exact.mode = AnalysisMode::Exact;
    exact.exact.jobs = 1;
    AnalysisWorkCounters counters;
    std::size_t winners = 0;
    const double seconds = per_pass(tracer, "exact.analyze", [&] {
      counters = AnalysisWorkCounters{};
      winners = 0;
      for (const SystemCase& sc : systems) {
        if (!sc.winner) continue;
        sink += analyze_multicluster_exact(*sc.model, sc.layouts, exact, {}, {}, &counters).ok();
        ++winners;
      }
    });
    out["exact.analyze_ms"] = 1e3 / static_cast<double>(std::max<std::size_t>(winners, 1)) * seconds;
    out["exact.states_per_s"] = static_cast<double>(counters.exact_states_explored) / seconds;
  }
  g_sink = g_sink + sink;
  return out;
}

}  // namespace perfbench
