#pragma once

/// Reference implementation of the holistic fixed point (Section 5), kept
/// as a test oracle for analyze_system.  It is deliberately the plain
/// textbook schedule, independent of the production engine's data layout:
/// a fresh static-schedule build, vector state indexed by TaskId /
/// MessageId, the unprepared dyn_response_time, and strict Jacobi sweeps —
/// every sweep recomputes every jitter from the previous sweep's
/// completions, then every FPS and DYN recurrence, with no skip tracking.
///
/// The holistic iteration is monotone from below, so every fair update
/// order reaches the same least fixed point: whenever this oracle
/// converges, analyze_system (a chaotic relaxation) must produce the same
/// completions, jitters, cost and convergence bit for bit.  Two things can
/// break that equality without a bug in either engine, and the property
/// lanes exclude them explicitly:
///  * the oracle needs more Jacobi sweeps than max_holistic_iterations
///    (it pins to infinity where the relaxation converges);
///  * an FPS recurrence stops at fps_response_time's iteration cap, whose
///    result depends on the jitters seen along the trajectory
///    (AnalysisWorkCounters::fps_cap_hits counts these in both engines).

#include <algorithm>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "flexopt/analysis/dyn_analysis.hpp"
#include "flexopt/analysis/fps_analysis.hpp"
#include "flexopt/analysis/list_scheduler.hpp"
#include "flexopt/analysis/sat_time.hpp"
#include "flexopt/analysis/system_analysis.hpp"
#include "flexopt/flexray/bus_layout.hpp"

namespace flexopt::testing {

/// Jacobi reference analysis.  Same inputs and result shape as
/// analyze_system in holistic mode (`options.mode` is ignored); throws when
/// the static schedule cannot be built.  `counters` records the sweeps,
/// recurrences and FPS cap hits.
inline AnalysisResult jacobi_oracle(const BusLayout& layout, const AnalysisOptions& options,
                                    AnalysisWorkCounters* counters = nullptr,
                                    std::span<const Time> external_task_jitter = {},
                                    std::span<const Time> dyn_message_caps = {}) {
  const Application& app = layout.application();
  const auto horizon_result = analysis_horizon(app, options);
  if (!horizon_result.ok()) throw std::runtime_error(horizon_result.error().message);
  const Time horizon = horizon_result.value();

  auto schedule_result = build_static_schedule(layout, options.scheduler);
  if (!schedule_result.ok()) throw std::runtime_error(schedule_result.error().message);
  AnalysisResult result;
  result.schedule_ptr = std::make_shared<const StaticSchedule>(std::move(schedule_result).value());
  const StaticSchedule& schedule = *result.schedule_ptr;

  result.task_completion.assign(app.task_count(), 0);
  result.message_completion.assign(app.message_count(), 0);
  result.task_jitter.assign(app.task_count(), 0);
  result.message_jitter.assign(app.message_count(), 0);
  for (std::uint32_t t = 0; t < app.task_count(); ++t) {
    if (app.tasks()[t].policy == TaskPolicy::Scs) {
      result.task_completion[t] = schedule.task_wcrt(static_cast<TaskId>(t));
    }
  }
  for (std::uint32_t m = 0; m < app.message_count(); ++m) {
    if (app.messages()[m].cls == MessageClass::Static) {
      result.message_completion[m] = schedule.message_wcrt(static_cast<MessageId>(m));
    }
  }

  std::vector<std::vector<FpsTaskParams>> fps_on_node(app.node_count());
  for (std::uint32_t t = 0; t < app.task_count(); ++t) {
    const Task& task = app.tasks()[t];
    if (task.policy != TaskPolicy::Fps) continue;
    fps_on_node[index_of(task.node)].push_back(FpsTaskParams{
        static_cast<TaskId>(t), task.wcet, app.graph(task.graph).period, 0, task.priority});
  }

  auto join = [](Time jitter, Time floor) {
    return is_infinite(floor) || is_infinite(jitter) ? kTimeInfinity : std::max(jitter, floor);
  };
  int fp_iterations = 0;
  int cap_hits = 0;
  bool converged = false;
  for (int iter = 0; iter < options.max_holistic_iterations && !converged; ++iter) {
    if (counters != nullptr) ++counters->holistic_iterations;
    bool changed = false;

    // 1. Jitters of ET activities from the previous sweep's completions.
    for (const ActivityRef a : app.topological_order()) {
      const bool is_et = a.is_task() ? app.task(a.as_task()).policy == TaskPolicy::Fps
                                     : app.message(a.as_message()).cls == MessageClass::Dynamic;
      if (!is_et) continue;
      Time jitter = a.is_task() ? app.task(a.as_task()).release_offset : 0;
      if (a.is_task() && a.index < external_task_jitter.size()) {
        jitter = join(jitter, external_task_jitter[a.index]);
      }
      for (const ActivityRef p : app.predecessors(a)) {
        jitter = join(jitter, p.is_task() ? result.task_completion[p.index]
                                          : result.message_completion[p.index]);
      }
      Time& slot = a.is_task() ? result.task_jitter[a.index] : result.message_jitter[a.index];
      if (slot != jitter) {
        slot = jitter;
        changed = true;
      }
    }

    // 2. FPS task response times per node.
    for (std::size_t n = 0; n < app.node_count(); ++n) {
      auto& params = fps_on_node[n];
      for (auto& p : params) p.jitter = result.task_jitter[index_of(p.id)];
      for (const auto& p : params) {
        if (counters != nullptr) ++counters->fps_analyses;
        const Time r = fps_response_time(p, params, schedule.node_profile(n), horizon,
                                         &fp_iterations, 0, &cap_hits);
        if (result.task_completion[index_of(p.id)] != r) {
          result.task_completion[index_of(p.id)] = r;
          changed = true;
        }
      }
    }

    // 3. DYN message response times on the bus.
    for (std::uint32_t m = 0; m < app.message_count(); ++m) {
      if (app.messages()[m].cls != MessageClass::Dynamic) continue;
      if (counters != nullptr) ++counters->dyn_analyses;
      Time response = dyn_response_time(layout, static_cast<MessageId>(m),
                                        result.message_jitter, horizon, options.dyn_bound,
                                        &fp_iterations)
                          .response;
      if (m < dyn_message_caps.size()) response = std::min(response, dyn_message_caps[m]);
      if (result.message_completion[m] != response) {
        result.message_completion[m] = response;
        changed = true;
      }
    }
    converged = !changed;
  }

  result.converged = converged;
  if (counters != nullptr) {
    counters->fixed_point_iterations += static_cast<std::uint64_t>(fp_iterations);
    counters->fps_cap_hits += static_cast<std::uint64_t>(cap_hits);
  }
  if (!converged) {
    for (std::uint32_t t = 0; t < app.task_count(); ++t) {
      if (app.tasks()[t].policy == TaskPolicy::Fps) result.task_completion[t] = kTimeInfinity;
    }
    for (std::uint32_t m = 0; m < app.message_count(); ++m) {
      if (app.messages()[m].cls == MessageClass::Dynamic) {
        result.message_completion[m] = kTimeInfinity;
      }
    }
  }
  result.cost = evaluate_cost(app, result.task_completion, result.message_completion);
  return result;
}

}  // namespace flexopt::testing
