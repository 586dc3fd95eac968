#include "flexopt/analysis/fps_analysis.hpp"

#include "flexopt/analysis/sat_time.hpp"
#include "flexopt/math/fixed_point.hpp"
#include "flexopt/model/application.hpp"

namespace flexopt {

void FpsTaskSet::add_node(std::span<const FpsTaskParams> group) {
  for (const FpsTaskParams& t : group) {
    FpsTask prepared;
    prepared.task = static_cast<std::uint32_t>(index_of(t.id));
    prepared.priority = t.priority;
    prepared.wcet = t.wcet;
    prepared.utilisation = static_cast<double>(t.wcet) / static_cast<double>(t.period);
    prepared.interferers_begin = static_cast<std::uint32_t>(interferers.size());
    for (const FpsTaskParams& j : group) {
      if (j.id == t.id || j.priority > t.priority) continue;
      interferers.push_back(FpsInterferer{static_cast<std::uint32_t>(index_of(j.id)), j.wcet,
                                          j.period,
                                          static_cast<double>(j.wcet) /
                                              static_cast<double>(j.period)});
    }
    prepared.interferers_end = static_cast<std::uint32_t>(interferers.size());
    tasks.push_back(prepared);
  }
  node_begin.push_back(static_cast<std::uint32_t>(tasks.size()));
}

FpsTaskSet prepare_fps_tasks(const Application& app) {
  // Counting sort by node (stable: ascending task index within a node), and
  // every buffer sized up front — the list scheduler prepares per build.
  std::vector<std::uint32_t> begin(app.node_count() + 1, 0);
  for (const Task& task : app.tasks()) {
    if (task.policy == TaskPolicy::Fps) ++begin[index_of(task.node) + 1];
  }
  std::size_t pairs = 0;
  for (std::size_t n = 0; n < app.node_count(); ++n) {
    const std::size_t group = begin[n + 1];
    pairs += group * group;
    begin[n + 1] += begin[n];
  }
  std::vector<FpsTaskParams> by_node(begin.back());
  std::vector<std::uint32_t> cursor(begin.begin(), begin.end() - 1);
  for (std::uint32_t t = 0; t < app.task_count(); ++t) {
    const Task& task = app.tasks()[t];
    if (task.policy != TaskPolicy::Fps) continue;
    by_node[cursor[index_of(task.node)]++] = FpsTaskParams{
        static_cast<TaskId>(t), task.wcet, app.graph(task.graph).period, task.priority};
  }
  FpsTaskSet set;
  set.tasks.reserve(by_node.size());
  set.node_begin.reserve(app.node_count() + 1);
  set.interferers.reserve(pairs);
  const std::span<const FpsTaskParams> all(by_node);
  for (std::size_t n = 0; n < app.node_count(); ++n) {
    set.add_node(all.subspan(begin[n], begin[n + 1] - begin[n]));
  }
  return set;
}

FpsResponse fps_response_time(const FpsTask& task, std::span<const FpsInterferer> interferers,
                              std::span<const Time> jitter, const BusyProfile& scs, Time horizon,
                              FpsScratch& scratch, Time seed, int max_iterations) {
  FpsResponse out;
  out.stop = FpsStop::Unbounded;
  const Time own_jitter = jitter[task.task];
  if (is_infinite(own_jitter)) return out;
  // Level-i load including the SCS share: if it exceeds 1, the level-i busy
  // period never ends and the least fixed point below (which only bounds
  // the *first* job) is not a sound WCRT — report unbounded instead.
  double load = task.utilisation + scs.utilisation();
  for (const FpsInterferer& j : interferers) {
    // An interfering task with unbounded jitter makes the bound unbounded.
    if (is_infinite(jitter[j.task])) return out;
    load += j.utilisation;
  }
  if (load > 1.0 + 1e-12) return out;

  scratch.releases.assign(interferers.size(), FpsScratch::Releases{});
  const auto body = [&](Time w) -> Time {
    Time total = task.wcet;
    total = sat_add(total, scs.max_busy_in_window(w));
    for (std::size_t k = 0; k < interferers.size(); ++k) {
      const FpsInterferer& j = interferers[k];
      FpsScratch::Releases& r = scratch.releases[k];
      // w only rises within one recurrence, so the count ceil((w + J) / T)
      // changes only once w + J passes releases * T.
      const Time x = w + jitter[j.task];
      if (x > r.reach) {
        std::int64_t releases = x / j.period;
        if (releases * j.period < x) ++releases;
        r.reach = sat_mul(j.period, releases);
        r.demand = sat_mul(j.wcet, releases);
      }
      total = sat_add(total, r.demand);
    }
    return total;
  };

  const FixedPointResult fp = iterate_to_fixed_point(body, horizon, max_iterations, seed);
  out.iterations = fp.iterations;
  if (fp.converged) {
    out.stop = FpsStop::Converged;
    out.response = sat_add(own_jitter, fp.value);
  } else {
    out.stop = fp.capped ? FpsStop::Capped : FpsStop::Unbounded;
  }
  return out;
}

}  // namespace flexopt
