#pragma once

/// Reference implementation of the OBC-CF curve-fit search (Fig. 8), kept
/// as a test oracle for CurveFitDynSearch.  It is the plain scan: whenever
/// the set of analysed points grows, every activity's curve is refitted
/// from scratch, and both candidate scans (lines 6-11 and 18-19)
/// re-interpolate every activity at every grid point and re-cost it.
/// CurveFitDynSearch keeps one incrementally updated table instead; it
/// must analyse the same points in the same order and return the same
/// result bit for bit.

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <vector>

#include "flexopt/analysis/sat_time.hpp"
#include "flexopt/core/delta_move.hpp"
#include "flexopt/core/dyn_search.hpp"
#include "flexopt/math/interpolation.hpp"

namespace flexopt::testing {

/// Reference Fig. 8 search; the options, inputs and result shape of
/// CurveFitDynSearch::search without a SolveControl.
inline DynSearchResult curve_fit_oracle_search(CostEvaluator& evaluator, const BusConfig& base,
                                               int dyn_min, int dyn_max,
                                               const CurveFitDynOptions& options = {},
                                               const BusConfig* warm_base = nullptr) {
  const Application& app = evaluator.application();
  const std::size_t n_tasks = app.task_count();
  const std::size_t n_msgs = app.message_count();
  auto completion_to_us = [&](ActivityRef a, Time completion) {
    if (!is_infinite(completion)) return to_us(completion);
    return to_us(app.effective_deadline(a)) * kUnboundedPenaltyFactor;
  };

  struct PointData {
    Cost cost;
    std::vector<double> completions_us;  // tasks then messages
  };
  std::map<int, PointData> points;

  // Each point is a DeltaMove off the previously analysed configuration.
  std::optional<BusConfig> chain_base;
  if (warm_base != nullptr) chain_base = *warm_base;
  auto analyse_point = [&](int minislots) -> const PointData* {
    if (const auto it = points.find(minislots); it != points.end()) return &it->second;
    BusConfig candidate = base;
    candidate.minislot_count = minislots;
    CostEvaluator::Evaluation eval;
    if (chain_base.has_value()) {
      eval = evaluator.evaluate_delta(*chain_base, DeltaMove::between(*chain_base, candidate));
    } else {
      eval = evaluator.evaluate(candidate);
    }
    if (!eval.valid) return nullptr;
    chain_base = candidate;
    PointData data;
    data.cost = eval.cost;
    for (std::size_t t = 0; t < n_tasks; ++t) {
      data.completions_us.push_back(completion_to_us(
          ActivityRef::task(static_cast<TaskId>(t)), eval.analysis.task_completion[t]));
    }
    for (std::size_t m = 0; m < n_msgs; ++m) {
      data.completions_us.push_back(
          completion_to_us(ActivityRef::message(static_cast<MessageId>(m)),
                           eval.analysis.message_completion[m]));
    }
    return &points.emplace(minislots, std::move(data)).first->second;
  };

  // Full refit of every curve, in ascending x, whenever the point set grew.
  std::size_t curves_built_from = 0;
  std::vector<ResponseTimeCurve> curves;
  std::vector<bool> is_constant;
  std::vector<double> constant_us;
  auto rebuild_curves = [&]() {
    if (curves_built_from == points.size()) return;
    const std::size_t n = n_tasks + n_msgs;
    curves.assign(n, ResponseTimeCurve{});
    is_constant.assign(n, true);
    constant_us.assign(n, 0.0);
    bool first = true;
    for (const auto& [x, data] : points) {
      for (std::size_t i = 0; i < n; ++i) {
        if (first) {
          constant_us[i] = data.completions_us[i];
        } else if (data.completions_us[i] != constant_us[i]) {
          is_constant[i] = false;
        }
      }
      first = false;
    }
    for (const auto& [x, data] : points) {
      for (std::size_t i = 0; i < n; ++i) {
        if (!is_constant[i]) {
          (void)curves[i].add_point(static_cast<double>(x), data.completions_us[i]);
        }
      }
    }
    curves_built_from = points.size();
  };

  std::vector<Time> task_c(n_tasks);
  std::vector<Time> msg_c(n_msgs);
  auto interpolated_cost = [&](int minislots) -> Cost {
    rebuild_curves();
    auto value_at = [&](std::size_t i) {
      const double us =
          is_constant[i] ? constant_us[i] : curves[i].evaluate(static_cast<double>(minislots));
      return static_cast<Time>(std::llround(us * 1e3));
    };
    for (std::size_t t = 0; t < n_tasks; ++t) task_c[t] = value_at(t);
    for (std::size_t m = 0; m < n_msgs; ++m) msg_c[m] = value_at(n_tasks + m);
    return evaluate_cost(app, task_c, msg_c);
  };

  // Line 1: initial points, geometric when dyn_min > 0.
  const int span = dyn_max - dyn_min;
  const int k = std::max(2, options.initial_points);
  if (dyn_min > 0 && dyn_max > dyn_min) {
    const double ratio = static_cast<double>(dyn_max) / static_cast<double>(dyn_min);
    for (int i = 0; i < k; ++i) {
      const double x = dyn_min * std::pow(ratio, static_cast<double>(i) / (k - 1));
      analyse_point(std::clamp(static_cast<int>(std::lround(x)), dyn_min, dyn_max));
    }
  } else {
    for (int i = 0; i < k; ++i) {
      const int x = dyn_min + static_cast<int>(
                                  static_cast<std::int64_t>(span) * i / std::max(1, k - 1));
      analyse_point(x);
    }
  }
  if (points.empty()) return {};

  const int stride = options.stride_minislots > 0
                         ? options.stride_minislots
                         : std::max(1, span / std::max(1, options.max_candidates - 1));

  DynSearchResult best_exact;
  auto note_exact = [&](int x, const Cost& cost) {
    if (cost.value < best_exact.cost.value) {
      best_exact.cost = cost;
      best_exact.minislots = x;
      best_exact.exact = true;
    }
  };
  for (const auto& [x, data] : points) note_exact(x, data.cost);

  int stale_iterations = 0;
  while (stale_iterations < options.n_max) {
    const double previous_best = best_exact.cost.value;
    // Lines 6-11.
    int best_x = dyn_min;
    double best_cost_value = kInvalidConfigCost;
    bool best_is_exact = false;
    for (int x = dyn_min; x <= dyn_max; x += stride) {
      const auto it = points.find(x);
      const double value = it != points.end() ? it->second.cost.value
                                              : interpolated_cost(x).value;
      if (value < best_cost_value) {
        best_cost_value = value;
        best_x = x;
        best_is_exact = it != points.end();
      }
    }

    if (best_is_exact && points.at(best_x).cost.schedulable) {
      return DynSearchResult{best_x, points.at(best_x).cost, true};  // line 12
    }
    if (!best_is_exact && best_cost_value <= 0.0) {
      // Lines 13-15.
      const PointData* data = analyse_point(best_x);
      if (data != nullptr) {
        note_exact(best_x, data->cost);
        if (data->cost.schedulable) return DynSearchResult{best_x, data->cost, true};
      }
    } else if (!best_is_exact) {
      // Line 17.
      const PointData* data = analyse_point(best_x);
      if (data != nullptr) note_exact(best_x, data->cost);
    } else {
      // Lines 18-19: the best interpolated point.
      int next_x = -1;
      double next_cost = kInvalidConfigCost;
      for (int x = dyn_min; x <= dyn_max; x += stride) {
        if (points.contains(x)) continue;
        const double value = interpolated_cost(x).value;
        if (value < next_cost) {
          next_cost = value;
          next_x = x;
        }
      }
      if (next_x < 0) break;
      const PointData* data = analyse_point(next_x);
      if (data != nullptr) note_exact(next_x, data->cost);
    }

    if (best_exact.cost.schedulable) return best_exact;
    stale_iterations = best_exact.cost.value < previous_best ? 0 : stale_iterations + 1;
  }
  return best_exact;
}

}  // namespace flexopt::testing
