#pragma once

/// \file obc.hpp
/// The Optimised Bus Configuration heuristic of Fig. 6: nested exploration
/// of ST slot count and length (with quota round-robin slot ownership),
/// delegating the DYN segment length to a pluggable strategy
/// (exhaustive = OBC-EE, curve fitting = OBC-CF).  Terminates as soon as a
/// schedulable configuration is confirmed.

#include "flexopt/core/dyn_search.hpp"
#include "flexopt/core/evaluator.hpp"

namespace flexopt {

class SolveControl;

struct ObcOptions {
  /// Extra ST slots explored beyond the per-sender minimum.  The paper
  /// loops to the protocol limit (1023) but stops at the first feasible
  /// configuration; the cap bounds worst-case runtime on hopeless systems.
  int max_extra_slots = 4;
  /// ST slot lengths explored per slot count.  The paper steps by
  /// 20 * gdBit up to 661 macroticks; the cap bounds the loop, the step is
  /// widened to cover [min, 661 MT] with this many samples when needed.
  int max_slot_len_steps = 8;
  /// Assign FrameIDs by criticality (Eq. 4); false = declaration order
  /// (ablation A3).
  bool criticality_frame_ids = true;
};

/// Runs the OBC heuristic with the given DYN-length strategy on cluster
/// `cluster` of `system` (a one-cluster config and cluster 0 for a
/// single-bus system; candidates are scored as moves substituted into
/// `system`).  `control` (optional) enforces SolveRequest budgets at the
/// ST-exploration loop and inside the DYN search.  Front-ends drive this
/// through the OptimizerRegistry ("obc-ee" / "obc-cf").
OptimizationOutcome optimize_obc(CostEvaluator& evaluator, const SystemConfig& system,
                                 int cluster, DynSegmentStrategy& dyn_strategy,
                                 const ObcOptions& options = {},
                                 SolveControl* control = nullptr);

}  // namespace flexopt
