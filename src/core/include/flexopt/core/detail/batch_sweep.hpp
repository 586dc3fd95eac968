#pragma once

/// \file batch_sweep.hpp
/// Shared core of the two DYN-length sweeps (BBC's Fig. 5 sweep and
/// OBC-EE's exhaustive search): evaluate `base` at every candidate minislot
/// count as moves on cluster `cluster` of `system`, in batches on the
/// evaluator's worker pool, honouring the SolveControl budgets between
/// batches.  Internal to src/core — front-ends drive sweeps through the
/// Optimizer interface.

#include <algorithm>
#include <functional>
#include <vector>

#include "flexopt/core/evaluator.hpp"
#include "flexopt/core/solve_types.hpp"

namespace flexopt::detail {

/// Sweeps the minislot counts dyn_min, dyn_min + stride, ... <= dyn_max and
/// calls `on_result(minislots, evaluation)` for every *valid* evaluation,
/// in input order — so a strictly-better selection in the callback yields
/// the same result at every pool size.  Stops early when `control`
/// requests it; batches never claim more than the remaining evaluation
/// budget (cache hits make this conservative, never over).
inline void batched_minislot_sweep(
    CostEvaluator& evaluator, const SystemConfig& system, int cluster, const BusConfig& base,
    int dyn_min, int dyn_max, int stride, SolveControl* control,
    const std::function<void(int, const CostEvaluator::Evaluation&)>& on_result) {
  const int batch_size = std::max(8, 2 * evaluator.worker_threads());
  std::vector<DeltaMove> batch;
  for (int next = dyn_min; next <= dyn_max;) {
    if (control != nullptr && control->should_stop(evaluator)) break;
    long n = batch_size;
    if (control != nullptr) {
      n = std::min(n, std::max(1L, control->remaining_evaluations(evaluator)));
    }
    batch.clear();
    for (; next <= dyn_max && static_cast<long>(batch.size()) < n; next += stride) {
      batch.push_back(DeltaMove::flexray(base, cluster));
      batch.back().config.minislot_count = next;
    }
    const auto evals = evaluator.evaluate(system, batch);
    for (std::size_t i = 0; i < evals.size(); ++i) {
      if (evals[i].valid) on_result(batch[i].config.minislot_count, evals[i]);
    }
  }
}

}  // namespace flexopt::detail
