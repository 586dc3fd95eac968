#include "flexopt/analysis/fps_analysis.hpp"

#include <algorithm>

#include "flexopt/analysis/sat_time.hpp"
#include "flexopt/math/fixed_point.hpp"

namespace flexopt {

Time fps_response_time(const FpsTaskParams& task, std::span<const FpsTaskParams> same_node,
                       const BusyProfile& scs, Time horizon, int* fp_iterations, Time seed,
                       int* cap_hits) {
  if (is_infinite(task.jitter)) return kTimeInfinity;
  // Level-i load including the SCS share: if it exceeds 1, the level-i busy
  // period never ends and the least fixed point below (which only bounds
  // the *first* job) is not a sound WCRT — report unbounded instead.
  double load = static_cast<double>(task.wcet) / static_cast<double>(task.period) +
                static_cast<double>(scs.busy_per_period()) / static_cast<double>(scs.period());
  for (const FpsTaskParams& j : same_node) {
    if (j.id == task.id || j.priority > task.priority) continue;
    if (is_infinite(j.jitter)) {
      // An interfering task with unbounded jitter makes the bound unbounded.
      return kTimeInfinity;
    }
    load += static_cast<double>(j.wcet) / static_cast<double>(j.period);
  }
  if (load > 1.0 + 1e-12) return kTimeInfinity;

  const auto body = [&](Time w) -> Time {
    Time total = task.wcet;
    total = sat_add(total, scs.max_busy_in_window(w));
    for (const FpsTaskParams& j : same_node) {
      if (j.id == task.id || j.priority > task.priority) continue;
      const std::int64_t releases = ceil_div(w + j.jitter, j.period);
      total = sat_add(total, sat_mul(j.wcet, releases));
    }
    return total;
  };

  const FixedPointResult fp = iterate_to_fixed_point(body, horizon, 10'000, seed);
  if (fp_iterations != nullptr) *fp_iterations += fp.iterations;
  if (fp.capped && cap_hits != nullptr) ++*cap_hits;
  if (!fp.converged) return kTimeInfinity;
  return sat_add(task.jitter, fp.value);
}

Time fps_response_time_sum(std::span<const FpsTaskParams> same_node, const BusyProfile& scs,
                           Time horizon, std::span<const Time> seeds, Time bound) {
  // Each task's term is at least min(horizon, jitter + seed): a seeded
  // iteration starts at the seed and only rises, and an unbounded response
  // is charged as `horizon`.  `remaining` sums these floors over the tasks
  // not yet analysed, so sum + remaining never exceeds the final sum.  If
  // the floors saturate, so does the final sum, and the first check below
  // returns it exactly.
  Time remaining = 0;
  const auto floor_of = [&](std::size_t i) {
    return seeds.empty() ? Time{0} : std::min(horizon, sat_add(same_node[i].jitter, seeds[i]));
  };
  for (std::size_t i = 0; i < seeds.size(); ++i) remaining = sat_add(remaining, floor_of(i));
  Time sum = 0;
  for (std::size_t i = 0; i < same_node.size(); ++i) {
    const Time at_least = sat_add(sum, remaining);
    if (at_least >= bound) return at_least;
    Time r;
    if (!seeds.empty() && is_infinite(seeds[i])) {
      // The seed diverged against a *subset* of this profile's
      // interference, so this task's recurrence diverges here too.
      r = kTimeInfinity;
    } else {
      r = fps_response_time(same_node[i], same_node, scs, horizon, nullptr,
                            seeds.empty() ? 0 : seeds[i]);
    }
    sum = sat_add(sum, is_infinite(r) ? horizon : r);
    remaining -= floor_of(i);
  }
  return sum;
}

}  // namespace flexopt
