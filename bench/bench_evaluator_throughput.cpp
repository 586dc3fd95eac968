// Evaluator service bench — the seam every optimiser load-bears on: the
// thread-safe CostEvaluator with its memoization cache and the worker pool
// behind its batch form.  Sweeps the same move set (with the revisits a
// nested OBC/SA exploration produces) four ways and checks the costs are
// bit-identical:
//
//   serial/uncached   — one evaluate(base, move) per visit, cache off
//   serial/cached     — same loop, revisits served from the cache
//   batch/1 thread    — evaluate(base, moves) with one worker (serial)
//   batch/N threads   — evaluate(base, moves) on the worker pool
//
// A second table times a BBC DYN-length sweep on a 5-node system of
// specs/fig9.campaign with one worker and with the pool, and prints the
// speed-up, so the pool's value is recorded on the hardware that runs it.
//
// "analyses" counts full holistic analyses (the Fig. 9 work metric); the
// cached runs must produce identical costs with fewer analyses.  With
// --check the run fails unless every batch cost equals the serial loop's
// bit for bit, every analysis of a move is counted as a delta evaluation,
// the revisiting sweep's analysis and cache-hit counts at N threads equal
// those at one thread (its revisits share a batch; the batch form serves
// them as the serial loop's cache hits), and the BBC sweep's full/delta
// counts at N threads equal those at one thread.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "flexopt/campaign/campaign.hpp"
#include "flexopt/campaign/spec_format.hpp"
#include "flexopt/core/config_builder.hpp"
#include "flexopt/gen/cruise_control.hpp"
#include "flexopt/gen/scenario.hpp"
#include "flexopt/util/table.hpp"

using namespace flexopt;
using namespace flexopt::bench;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// The first 5-node scenario of specs/fig9.campaign, generated exactly as
/// `flexopt_cli campaign` would.
Expected<Application> fig9_five_node_system() {
  const std::string path = std::string(FLEXOPT_SOURCE_DIR) + "/specs/fig9.campaign";
  std::ifstream in(path);
  auto spec = parse_campaign(in);
  if (!spec.ok()) return make_error(path + ": " + spec.error().message);
  auto plans = expand_grid(spec.value());
  if (!plans.ok()) return make_error(plans.error().message);
  for (const ScenarioPlan& plan : plans.value()) {
    if (plan.scenario.base.nodes == 5) return generate_scenario(plan.scenario, BusParams{});
  }
  return make_error(path + " has no 5-node scenario");
}

struct CountCheck {
  std::uint64_t full = 0;
  std::uint64_t delta = 0;
  bool operator==(const CountCheck&) const = default;
};

CountCheck counts_of(const CostEvaluator& evaluator) {
  const EvaluatorWorkStats work = evaluator.work_stats();
  return {work.full_evaluations, work.delta_evaluations};
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--check") {
      check = true;
    } else {
      std::cerr << "usage: bench_evaluator_throughput [--check]\n";
      return 2;
    }
  }
  const int pool_threads = std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
  bool ok = true;

  std::cout << "== Evaluator throughput: cache + batch form vs serial ==\n";
  const Application app = build_cruise_controller();
  const BusParams params = cruise_controller_params();

  // BBC-shaped base configuration; the moves sweep the DYN length twice
  // (the second pass models the revisits of a nested exploration).
  BusConfig base;
  base.frame_id = assign_frame_ids_by_criticality(app, params);
  const auto senders = st_sender_nodes(app);
  base.static_slot_count = static_cast<int>(senders.size());
  base.static_slot_len = min_static_slot_len(app, params);
  base.static_slot_owner = senders;
  const DynBounds bounds = dyn_segment_bounds(
      app, params, static_cast<Time>(base.static_slot_count) * base.static_slot_len);
  if (!bounds.feasible()) {
    std::cerr << "no feasible DYN bounds\n";
    return 1;
  }
  const int sweep = full_scale() ? 192 : 64;
  const int stride =
      std::max(1, (bounds.max_minislots - bounds.min_minislots) / std::max(1, sweep - 1));
  const SystemConfig system = SystemConfig::single(base);
  std::vector<DeltaMove> moves;
  for (int pass = 0; pass < 2; ++pass) {
    for (int ms = bounds.min_minislots; ms <= bounds.max_minislots; ms += stride) {
      moves.push_back(DeltaMove::flexray(base));
      moves.back().config.minislot_count = ms;
    }
  }

  struct Run {
    std::string label;
    bool cache;
    int threads;
    bool batch;
  };
  const std::vector<Run> runs{{"serial/uncached", false, 1, false},
                              {"serial/cached", true, 1, false},
                              {"batch/1 thread", true, 1, true},
                              {"batch/" + std::to_string(pool_threads) + " threads", true,
                               pool_threads, true}};

  Table table({"mode", "candidates", "analyses", "cache hits", "full", "delta", "time (s)",
               "identical"});
  std::vector<double> reference;
  // Analyses and cache hits of the batch runs, per pool size.
  std::vector<std::pair<long, std::uint64_t>> batch_counts;
  for (const Run& run : runs) {
    EvaluatorOptions options;
    options.cache_enabled = run.cache;
    options.threads = run.threads;
    CostEvaluator evaluator(app, params, optimizer_analysis_options(), options);
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<double> costs;
    costs.reserve(moves.size());
    if (run.batch) {
      for (const auto& e : evaluator.evaluate(system, moves)) {
        costs.push_back(e.valid ? e.cost.value : kInvalidConfigCost);
      }
    } else {
      for (const DeltaMove& move : moves) {
        const CostEvaluator::Evaluation& e = evaluator.evaluate(system, move);
        costs.push_back(e.valid ? e.cost.value : kInvalidConfigCost);
      }
    }
    const double elapsed = seconds_since(t0);

    bool identical = true;
    if (reference.empty()) {
      reference = costs;
    } else {
      identical = costs == reference;  // exact: the analysis is deterministic
    }
    const CountCheck counts = counts_of(evaluator);
    const bool counted_as_moves =
        counts.full == 0 && counts.delta == static_cast<std::uint64_t>(evaluator.evaluations());
    const EvaluatorCacheStats stats = evaluator.cache_stats();
    table.add_row({run.label, std::to_string(moves.size()),
                   std::to_string(evaluator.evaluations()), std::to_string(stats.hits),
                   std::to_string(counts.full), std::to_string(counts.delta),
                   fmt_double(elapsed, 3), identical ? "yes" : "NO"});
    if (!identical) {
      std::cerr << run.label << ": cost mismatch vs serial/uncached reference\n";
      ok = false;
    }
    if (!counted_as_moves) {
      std::cerr << run.label << ": a move analysis was not counted as a delta evaluation\n";
      ok = false;
    }
    if (run.batch) batch_counts.emplace_back(evaluator.evaluations(), stats.hits);
  }
  table.print(std::cout);
  if (batch_counts.size() == 2 && batch_counts[0] != batch_counts[1]) {
    std::cerr << "revisiting sweep: analyses/cache hits differ between 1 and " << pool_threads
              << " threads (" << batch_counts[0].first << "/" << batch_counts[0].second
              << " vs " << batch_counts[1].first << "/" << batch_counts[1].second << ")\n";
    ok = false;
  }

  std::cout << "\n== BBC DYN-length sweep, 5-node fig9 system: pool vs one worker ==\n";
  const auto fig9 = fig9_five_node_system();
  if (!fig9.ok()) {
    std::cerr << fig9.error().message << "\n";
    return 1;
  }
  auto bbc = OptimizerRegistry::create("bbc");
  if (!bbc.ok()) {
    std::cerr << bbc.error().message << "\n";
    return 1;
  }
  Table sweep_table({"workers", "analyses", "full", "delta", "cost", "time (s)", "speed-up"});
  double serial_seconds = 0.0;
  double serial_cost = 0.0;
  CountCheck serial_counts;
  // Best of five fresh solves per pool size: one sweep takes milliseconds.
  constexpr int kRepeats = 5;
  for (const int threads : {1, pool_threads}) {
    EvaluatorOptions options;
    options.threads = threads;
    double elapsed = 0.0;
    SolveReport report;
    CountCheck counts;
    long analyses = 0;
    for (int repeat = 0; repeat < kRepeats; ++repeat) {
      CostEvaluator evaluator(fig9.value(), BusParams{}, optimizer_analysis_options(), options);
      const auto t0 = std::chrono::steady_clock::now();
      report = bbc.value()->solve(evaluator);
      const double seconds = seconds_since(t0);
      elapsed = repeat == 0 ? seconds : std::min(elapsed, seconds);
      counts = counts_of(evaluator);
      analyses = evaluator.evaluations();
    }
    if (threads == 1) {
      serial_seconds = elapsed;
      serial_cost = report.outcome.cost.value;
      serial_counts = counts;
    } else {
      if (report.outcome.cost.value != serial_cost) {
        std::cerr << "BBC sweep: cost differs between 1 and " << threads << " workers\n";
        ok = false;
      }
      if (!(counts == serial_counts)) {
        std::cerr << "BBC sweep: full/delta counts differ between 1 and " << threads
                  << " workers\n";
        ok = false;
      }
    }
    sweep_table.add_row({std::to_string(threads), std::to_string(analyses),
                         std::to_string(counts.full), std::to_string(counts.delta),
                         fmt_double(report.outcome.cost.value, 1), fmt_double(elapsed, 3),
                         fmt_double(elapsed > 0.0 ? serial_seconds / elapsed : 0.0, 2) + "x"});
  }
  sweep_table.print(std::cout);

  std::cout << "\nReading: the cached runs serve every revisit from the config->evaluation\n"
               "cache (half the candidates here); the batch form spreads the remaining\n"
               "analyses across the worker pool with identical costs.  On the BBC sweep\n"
               "the full/delta counts are identical at every pool size; its speed-up\n"
               "column is the pool's value on this machine.\n";
  if (check && !ok) {
    std::cerr << "bench_evaluator_throughput --check: FAILED\n";
    return 1;
  }
  return 0;
}
