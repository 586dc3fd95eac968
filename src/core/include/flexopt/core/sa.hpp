#pragma once

/// \file sa.hpp
/// Simulated-annealing design-space exploration (Section 7's evaluation
/// baseline): Metropolis acceptance with geometric cooling over moves on
/// the full configuration space — ST slot count, slot length, DYN segment
/// length, ST slot ownership, and DYN FrameID assignment.  With a large
/// evaluation budget this approximates the optimum the heuristics are
/// measured against in Fig. 9.

#include <cstdint>
#include <vector>

#include "flexopt/core/evaluator.hpp"
#include "flexopt/util/rng.hpp"

namespace flexopt {

class SolveControl;

struct SaOptions {
  std::uint64_t seed = 1;
  /// Full analyses the run may spend.  The paper ran "several hours"; the
  /// default is sized for the scaled-down Fig. 9 bench, and
  /// FLEXOPT_BENCH_FULL raises it.
  long max_evaluations = 1500;
  double initial_temperature_factor = 0.25;  ///< T0 = factor * |initial cost|
  double cooling = 0.97;
  int iterations_per_temperature = 20;
  /// Keep annealing after the first schedulable solution to minimise f2
  /// (the paper optimises the cost function, not mere feasibility).
  bool stop_at_first_feasible = false;
};

/// Mutates `config` in place with one random SA neighbourhood move (+-ST
/// slot, +-slot length, +-DYN length, slot reassignment, FrameID swap/move);
/// returns false when the drawn move is inapplicable (caller re-rolls).
/// Exposed for bench_delta_eval and the delta property tests, which replay
/// SA's exact move distribution.
bool random_neighbour_move(BusConfig& config, const Application& app, const BusParams& params,
                           Rng& rng, const std::vector<NodeId>& st_senders, int dyn_min,
                           int dyn_max);

/// Runs simulated annealing on cluster `cluster` of `system` (a
/// one-cluster config and cluster 0 for a single-bus system; every
/// neighbour is scored as a move substituted into `system`).  `control`
/// (optional) adds SolveRequest budgets / cancellation on top of the
/// SaOptions evaluation budget.  Front-ends drive this through the
/// OptimizerRegistry ("sa").
OptimizationOutcome optimize_sa(CostEvaluator& evaluator, const SystemConfig& system,
                                int cluster, const SaOptions& options = {},
                                SolveControl* control = nullptr);

}  // namespace flexopt
