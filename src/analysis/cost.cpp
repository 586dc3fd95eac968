#include "flexopt/analysis/cost.hpp"

#include <algorithm>

#include "flexopt/analysis/sat_time.hpp"

namespace flexopt {

void CostAccumulator::add(const Application& app, std::span<const Time> task_completions,
                          std::span<const Time> message_completions) {
  const std::span<const Time> deadlines = app.deadlines();
  auto account = [&](Time deadline, Time completion) {
    if (is_infinite(completion)) {
      ++unbounded_activities;
      overshoot_us += to_us(deadline) * kUnboundedPenaltyFactor;
      return;
    }
    const Time slack = completion - deadline;
    if (slack > 0) overshoot_us += to_us(slack);
    laxity_us += to_us(slack);
  };

  const std::size_t n_tasks = app.task_count();
  for (std::size_t t = 0; t < n_tasks; ++t) account(deadlines[t], task_completions[t]);
  for (std::size_t m = 0; m < app.message_count(); ++m) {
    account(deadlines[n_tasks + m], message_completions[m]);
  }
}

Cost CostAccumulator::finish() const {
  Cost cost;
  cost.unbounded_activities = unbounded_activities;
  if (overshoot_us > 0.0 || unbounded_activities > 0) {
    cost.value = overshoot_us;
    cost.schedulable = false;
  } else {
    cost.value = laxity_us;
    cost.schedulable = true;
  }
  return cost;
}

Cost evaluate_cost(const Application& app, std::span<const Time> task_completions,
                   std::span<const Time> message_completions) {
  CostAccumulator acc;
  acc.add(app, task_completions, message_completions);
  return acc.finish();
}

}  // namespace flexopt
