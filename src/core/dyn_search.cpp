#include "flexopt/core/dyn_search.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <span>
#include <vector>

#include "flexopt/analysis/sat_time.hpp"
#include "flexopt/core/delta_move.hpp"
#include "flexopt/core/detail/batch_sweep.hpp"
#include "flexopt/core/solve_types.hpp"
#include "flexopt/math/interpolation.hpp"

namespace flexopt {
namespace {

int auto_stride(int span, int max_points) {
  return std::max(1, span / std::max(1, max_points - 1));
}

}  // namespace

DynSearchResult ExhaustiveDynSearch::search(CostEvaluator& evaluator, const SystemConfig& system,
                                            int cluster, const BusConfig& base, int dyn_min,
                                            int dyn_max, SolveControl* control) {
  DynSearchResult best;
  const int stride = options_.stride_minislots > 0
                         ? options_.stride_minislots
                         : auto_stride(dyn_max - dyn_min, options_.max_sweep_points);
  detail::batched_minislot_sweep(evaluator, system, cluster, base, dyn_min, dyn_max, stride,
                                 control,
                                 [&](int minislots, const CostEvaluator::Evaluation& eval) {
                                   if (eval.cost.value < best.cost.value) {
                                     best.cost = eval.cost;
                                     best.minislots = minislots;
                                     best.exact = true;
                                     if (control != nullptr) control->note_best(best.cost);
                                   }
                                 });
  return best;
}

DynSearchResult CurveFitDynSearch::search(CostEvaluator& evaluator, const SystemConfig& system,
                                          int cluster, const BusConfig& base, int dyn_min,
                                          int dyn_max, SolveControl* control) {
  const Application& app = *evaluator.system_model().cluster_app(static_cast<std::size_t>(cluster));

  // Completion bounds are fitted in microseconds; unbounded completions are
  // mapped to the same 10x-deadline magnitude the cost function charges, so
  // interpolated costs rank configurations consistently with exact ones.
  // Activities are indexed tasks then messages throughout.
  const std::size_t n_tasks = app.task_count();
  const std::size_t n = app.activity_count();
  const std::span<const Time> deadlines = app.deadlines();
  auto completion_to_us = [&](std::size_t i, Time completion) {
    if (!is_infinite(completion)) return to_us(completion);
    return to_us(deadlines[i]) * kUnboundedPenaltyFactor;
  };

  /// One fully analysed point (Fig. 8, set `Points`).
  struct PointData {
    Cost cost;
    std::vector<double> completions_us;  // tasks then messages
  };
  std::map<int, PointData> points;
  int last_point = 0;  // abscissa of the most recently analysed point

  auto analyse_point = [&](int minislots) -> const PointData* {
    if (const auto it = points.find(minislots); it != points.end()) return &it->second;
    DeltaMove move = DeltaMove::flexray(base, cluster);
    move.config.minislot_count = minislots;
    const CostEvaluator::Evaluation& eval = evaluator.evaluate(system, move);
    if (!eval.valid) return nullptr;
    PointData data;
    data.cost = eval.cost;
    data.completions_us.reserve(n);
    for (std::size_t t = 0; t < n_tasks; ++t) {
      data.completions_us.push_back(completion_to_us(t, eval.analysis.task_completion[t]));
    }
    for (std::size_t m = 0; n_tasks + m < n; ++m) {
      data.completions_us.push_back(
          completion_to_us(n_tasks + m, eval.analysis.message_completion[m]));
    }
    last_point = minislots;
    return &points.emplace(minislots, std::move(data)).first->second;
  };

  // Fig. 8 line 1: initial point set including both endpoints.  Spacing is
  // geometric: response times react strongest at short segment lengths
  // (BusCycles filling) and only linearly at long ones (gdCycle growth), so
  // a log grid resolves the interesting left side — the paper's own Fig. 7
  // samples the x axis with geometrically growing steps.
  const int span = dyn_max - dyn_min;
  const int k = std::max(2, options_.initial_points);
  const auto stop_requested = [&]() {
    return control != nullptr && control->should_stop(evaluator);
  };
  if (dyn_min > 0 && dyn_max > dyn_min) {
    const double ratio = static_cast<double>(dyn_max) / static_cast<double>(dyn_min);
    for (int i = 0; i < k && !stop_requested(); ++i) {
      const double x = dyn_min * std::pow(ratio, static_cast<double>(i) / (k - 1));
      analyse_point(std::clamp(static_cast<int>(std::lround(x)), dyn_min, dyn_max));
    }
  } else {
    for (int i = 0; i < k && !stop_requested(); ++i) {
      const int x = dyn_min + static_cast<int>(
                                  static_cast<std::int64_t>(span) * i / std::max(1, k - 1));
      analyse_point(x);
    }
  }
  if (points.empty()) return {};  // every initial candidate invalid

  const int stride = options_.stride_minislots > 0
                         ? options_.stride_minislots
                         : auto_stride(span, options_.max_candidates);

  // The candidate grid x = dyn_min + r * stride, one table row per x.  A
  // row holds every activity's interpolated completion (rounded to Time)
  // and the Eq. 5 cost of those values; rows at analysed points carry the
  // exact cost instead.  The table follows the point set: when a point is
  // added, only the cells whose fit changed are re-interpolated, and only
  // the rows with a moved value are re-costed.
  const std::size_t n_rows =
      dyn_max >= dyn_min ? static_cast<std::size_t>((dyn_max - dyn_min) / stride) + 1 : 0;
  auto row_x = [&](std::size_t r) { return dyn_min + static_cast<int>(r) * stride; };
  auto mark_exact = [&](int x, const PointData& data) {
    if (x < dyn_min || x > dyn_max || (x - dyn_min) % stride != 0) return;
    const auto r = static_cast<std::size_t>((x - dyn_min) / stride);
    grid_exact_[r] = 1;
    grid_cost_[r] = data.cost.value;
  };
  // Fits activity i through every analysed point in ascending x: Newton's
  // divided differences depend on the insertion order bit for bit.
  auto refit = [&](std::size_t i) {
    ResponseTimeCurve& curve = curves_[i];
    curve.clear();
    for (const auto& [x, data] : points) {
      (void)curve.add_point(static_cast<double>(x), data.completions_us[i]);
    }
  };
  // Re-interpolates activity i on rows [lo, hi), marking rows that moved.
  auto refresh = [&](std::size_t i, std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r) {
      if (grid_exact_[r]) continue;
      const double us = is_constant_[i] ? constant_us_[i]
                                        : curves_[i].evaluate(static_cast<double>(row_x(r)));
      const Time value = static_cast<Time>(std::llround(us * 1e3));
      Time& cell = grid_values_[r * n + i];
      if (cell != value) {
        cell = value;
        grid_dirty_[r] = 1;
      }
    }
  };
  auto rebuild_table = [&]() {
    curves_.resize(n);
    is_constant_.assign(n, 1);
    constant_us_.assign(n, 0.0);
    grid_values_.resize(n_rows * n);
    grid_cost_.assign(n_rows, 0.0);
    grid_dirty_.assign(n_rows, 1);
    grid_exact_.assign(n_rows, 0);
    for (const auto& [x, data] : points) mark_exact(x, data);
    const std::vector<double>& first = points.begin()->second.completions_us;
    for (std::size_t i = 0; i < n; ++i) {
      constant_us_[i] = first[i];
      for (const auto& [x, data] : points) {
        if (data.completions_us[i] != first[i]) is_constant_[i] = 0;
      }
      if (!is_constant_[i]) refit(i);
      refresh(i, 0, n_rows);
    }
  };
  // Folds the point at `x` into a table that holds every other point.  A
  // constant activity that keeps its value is untouched; one that starts
  // to vary, and every Newton fit, changes everywhere.  A piecewise-linear
  // fit changes only strictly between the new point's neighbours.
  auto add_to_table = [&](int x) {
    const auto it = points.find(x);
    const PointData& data = it->second;
    mark_exact(x, data);
    std::size_t lo = 0;
    std::size_t hi = n_rows;
    if (it != points.begin()) {
      const int left = std::prev(it)->first;
      while (lo < n_rows && row_x(lo) <= left) ++lo;
    }
    if (const auto next = std::next(it); next != points.end()) {
      while (hi > lo && row_x(hi - 1) >= next->first) --hi;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (is_constant_[i]) {
        if (data.completions_us[i] == constant_us_[i]) continue;
        is_constant_[i] = 0;
        refit(i);
        refresh(i, 0, n_rows);
        continue;
      }
      const bool was_linear = curves_[i].piecewise_linear();
      refit(i);
      refresh(i, was_linear ? lo : 0, was_linear ? hi : n_rows);
    }
  };
  std::size_t table_points = 0;  // points the table reflects
  auto sync_table = [&]() {
    if (table_points == points.size()) return;
    if (table_points > 0 && table_points + 1 == points.size()) {
      add_to_table(last_point);
    } else {
      rebuild_table();
    }
    table_points = points.size();
    for (std::size_t r = 0; r < n_rows; ++r) {
      if (!grid_dirty_[r]) continue;
      grid_dirty_[r] = 0;
      if (grid_exact_[r]) continue;
      const std::span<const Time> row(grid_values_.data() + r * n, n);
      grid_cost_[r] = evaluate_cost(app, row.first(n_tasks), row.subspan(n_tasks)).value;
    }
  };

  DynSearchResult best_exact;
  auto note_exact = [&](int x, const Cost& cost) {
    if (cost.value < best_exact.cost.value) {
      best_exact.cost = cost;
      best_exact.minislots = x;
      best_exact.exact = true;
      if (control != nullptr) control->note_best(cost);
    }
  };
  for (const auto& [x, data] : points) note_exact(x, data.cost);

  int stale_iterations = 0;
  while (stale_iterations < options_.n_max && !stop_requested()) {
    const double previous_best = best_exact.cost.value;

    // Fig. 8 lines 6-11: scan all candidates, interpolated or exact, and
    // select the minimum-cost one.
    sync_table();
    int best_x = dyn_min;
    double best_cost_value = kInvalidConfigCost;
    bool best_is_exact = false;
    for (std::size_t r = 0; r < n_rows; ++r) {
      if (grid_cost_[r] < best_cost_value) {
        best_cost_value = grid_cost_[r];
        best_x = row_x(r);
        best_is_exact = grid_exact_[r] != 0;
      }
    }

    if (best_is_exact && points.at(best_x).cost.schedulable) {
      // Line 12: schedulable and exact — done.
      return DynSearchResult{best_x, points.at(best_x).cost, true};
    }
    if (!best_is_exact && best_cost_value <= 0.0) {
      // Lines 13-15: schedulable according to the interpolation — verify.
      const PointData* data = analyse_point(best_x);
      if (data != nullptr) {
        note_exact(best_x, data->cost);
        if (data->cost.schedulable) return DynSearchResult{best_x, data->cost, true};
      }
      // Not actually schedulable: the new exact point sharpens the fit.
    } else if (!best_is_exact) {
      // Line 17: unschedulable everywhere; refine at the most promising
      // un-analysed candidate.
      const PointData* data = analyse_point(best_x);
      if (data != nullptr) note_exact(best_x, data->cost);
    } else {
      // Lines 18-19: best candidate already analysed and unschedulable;
      // add the best *interpolated* point instead to gain information.
      int next_x = -1;
      double next_cost = kInvalidConfigCost;
      for (std::size_t r = 0; r < n_rows; ++r) {
        if (grid_exact_[r]) continue;
        if (grid_cost_[r] < next_cost) {
          next_cost = grid_cost_[r];
          next_x = row_x(r);
        }
      }
      if (next_x < 0) break;  // grid exhausted
      const PointData* data = analyse_point(next_x);
      if (data != nullptr) note_exact(next_x, data->cost);
    }

    if (best_exact.cost.schedulable) {
      return best_exact;  // a refinement step found a schedulable point
    }
    stale_iterations = best_exact.cost.value < previous_best ? 0 : stale_iterations + 1;
  }

  return best_exact;  // Nmax exceeded: report the best (infeasible) point
}

}  // namespace flexopt
