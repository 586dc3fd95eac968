#pragma once

/// \file dyn_search.hpp
/// Strategies for `Determine_DYN_segment_length()` (Fig. 6 line 6): given a
/// fixed ST segment, find the DYN segment length minimising the Eq. 5 cost.
///
/// * ExhaustiveDynSearch — full analysis at every candidate length (OBC-EE).
/// * CurveFitDynSearch — the paper's contribution (Fig. 8): full analysis
///   at a handful of lengths, Newton-polynomial interpolation of every
///   activity's completion bound elsewhere, iterative refinement until a
///   schedulable length is confirmed or Nmax stale iterations pass.

#include <memory>
#include <vector>

#include "flexopt/core/evaluator.hpp"
#include "flexopt/math/interpolation.hpp"

namespace flexopt {

class SolveControl;

struct DynSearchResult {
  int minislots = 0;
  Cost cost{kInvalidConfigCost, false, 0};
  /// True when `cost` comes from a full analysis (never from interpolation).
  bool exact = false;
};

/// Interface: search [dyn_min, dyn_max] (minislots) for the best DYN length
/// for `base` (a BusConfig with the ST segment and FrameIDs already fixed;
/// minislot_count is overwritten by the search), the bus of cluster
/// `cluster` of `system`: every candidate is scored as a move substituted
/// into `system` (a one-cluster config and cluster 0 for a single-bus
/// system).  `control` (nullable) enforces SolveRequest budgets at the
/// strategy's cancellation points.
class DynSegmentStrategy {
 public:
  virtual ~DynSegmentStrategy() = default;
  virtual DynSearchResult search(CostEvaluator& evaluator, const SystemConfig& system,
                                 int cluster, const BusConfig& base, int dyn_min, int dyn_max,
                                 SolveControl* control = nullptr) = 0;
  [[nodiscard]] virtual const char* name() const = 0;
};

struct ExhaustiveDynOptions {
  /// Candidate stride in minislots; 0 = auto from max_sweep_points.
  int stride_minislots = 0;
  int max_sweep_points = 96;
};

/// Full analysis at every candidate length (OBC-EE).  Candidates are
/// batches of moves fanned across the evaluator's worker pool (serial with
/// one worker); in-order, strictly-better comparisons make the result and
/// every counter identical at any pool size.
class ExhaustiveDynSearch final : public DynSegmentStrategy {
 public:
  explicit ExhaustiveDynSearch(ExhaustiveDynOptions options = {}) : options_(options) {}
  DynSearchResult search(CostEvaluator& evaluator, const SystemConfig& system, int cluster,
                         const BusConfig& base, int dyn_min, int dyn_max,
                         SolveControl* control = nullptr) override;
  [[nodiscard]] const char* name() const override { return "exhaustive"; }

 private:
  ExhaustiveDynOptions options_;
};

struct CurveFitDynOptions {
  /// Initial fully-analysed points (the paper uses 5).
  int initial_points = 5;
  /// Terminate after this many iterations without a schedulable solution or
  /// cost improvement (the paper uses 10).
  int n_max = 10;
  /// Candidate grid stride; 0 = auto from max_candidates.
  int stride_minislots = 0;
  int max_candidates = 128;
};

/// Curve-fit search (OBC-CF).  The candidate grid's interpolated values
/// and costs live in one table per search, updated incrementally as the
/// set of analysed points grows; its buffers are reused across searches,
/// so one instance must not run two searches at once.  Fig. 8's points are
/// analysed one at a time through the single-move form.
class CurveFitDynSearch final : public DynSegmentStrategy {
 public:
  explicit CurveFitDynSearch(CurveFitDynOptions options = {}) : options_(options) {}
  DynSearchResult search(CostEvaluator& evaluator, const SystemConfig& system, int cluster,
                         const BusConfig& base, int dyn_min, int dyn_max,
                         SolveControl* control = nullptr) override;
  /// Forwarder kept for the benchmark harness: a single-bus search.
  DynSearchResult search(CostEvaluator& evaluator, const BusConfig& base, int dyn_min,
                         int dyn_max) {
    return search(evaluator, SystemConfig::single(base), 0, base, dyn_min, dyn_max);
  }
  [[nodiscard]] const char* name() const override { return "curve-fit"; }

 private:
  CurveFitDynOptions options_;
  // Per-activity fits (tasks then messages).  An activity whose completion
  // bound is equal at every analysed point is held as `constant_us_`.
  std::vector<ResponseTimeCurve> curves_;
  std::vector<char> is_constant_;
  std::vector<double> constant_us_;
  // The grid table: per candidate row, the rounded interpolated completion
  // of every activity (row-major), the row's cost, and whether the row is
  // an analysed point (its cost then is the exact one).
  std::vector<Time> grid_values_;
  std::vector<double> grid_cost_;
  std::vector<char> grid_dirty_;
  std::vector<char> grid_exact_;
};

}  // namespace flexopt
