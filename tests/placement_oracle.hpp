#pragma once

/// Test oracle for the list scheduler's FPS-impact placement (Fig. 2
/// line 11) and for the prepared FPS kernel: the scheduler as it scored
/// candidates before the per-node response records — every scored job
/// recomputes the node's base responses from zero, then ranks the
/// candidates with the pruned, seeded sum — and the plain FPS busy-window
/// recurrence over unprepared ReferenceFpsTask (priority filtering and the
/// load pre-test per call, one division per release count).
///
/// build_static_schedule must reproduce oracle_build_static_schedule entry
/// for entry, and fps_response_time must reproduce
/// reference_fps_response_time, bit for bit.

#include <algorithm>
#include <map>
#include <span>
#include <vector>

#include "flexopt/analysis/busy_profile.hpp"
#include "flexopt/analysis/fps_analysis.hpp"
#include "flexopt/analysis/list_scheduler.hpp"
#include "flexopt/analysis/sat_time.hpp"
#include "flexopt/analysis/static_schedule.hpp"
#include "flexopt/flexray/bus_layout.hpp"
#include "flexopt/math/fixed_point.hpp"

namespace flexopt::testing {

/// An FPS task with its current release jitter: the input of the plain
/// recurrence (the prepared kernel takes jitters per call instead).
struct ReferenceFpsTask {
  TaskId id{};
  Time wcet = 0;
  Time period = 0;
  /// Release jitter inherited from predecessors (holistic iteration).
  Time jitter = 0;
  /// Smaller = higher priority.
  int priority = 0;
};

/// The kernel's description of `tasks` (their jitters dropped).
inline std::vector<FpsTaskParams> kernel_params(std::span<const ReferenceFpsTask> tasks) {
  std::vector<FpsTaskParams> out;
  for (const ReferenceFpsTask& t : tasks) out.push_back({t.id, t.wcet, t.period, t.priority});
  return out;
}

/// Response time (including the task's own jitter) of `task` when competing
/// with `same_node` FPS tasks (which may include `task` itself; it is
/// skipped) in the slack of `scs`.  Tasks with priority <= task.priority
/// interfere.  Returns kTimeInfinity if the recurrence exceeds `horizon`,
/// stops at the 10,000-iteration cap, the load exceeds 1, or any
/// contributing jitter is infinite.  `seed` is a pre-jitter seed for the
/// busy-window iteration; `cap_hits` counts capped recurrences.
inline Time reference_fps_response_time(const ReferenceFpsTask& task,
                                        std::span<const ReferenceFpsTask> same_node,
                                        const BusyProfile& scs, Time horizon,
                                        int* fp_iterations = nullptr, Time seed = 0,
                                        int* cap_hits = nullptr) {
  if (is_infinite(task.jitter)) return kTimeInfinity;
  // Level-i load including the SCS share: if it exceeds 1, the level-i busy
  // period never ends and the least fixed point below (which only bounds
  // the *first* job) is not a sound WCRT — report unbounded instead.
  double load = static_cast<double>(task.wcet) / static_cast<double>(task.period) +
                static_cast<double>(scs.busy_per_period()) / static_cast<double>(scs.period());
  for (const ReferenceFpsTask& j : same_node) {
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
    for (const ReferenceFpsTask& j : same_node) {
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

/// Sum of response times of all tasks in `same_node` (infinite responses
/// are added as `horizon` each).  `seeds` (optional, parallel to
/// `same_node`) are base-profile busy values; an infinite seed
/// short-circuits that task to an infinite response.  `bound` prunes: the
/// result is the exact sum when that is below `bound`, and otherwise some
/// value >= `bound`.
inline Time reference_fps_response_time_sum(std::span<const ReferenceFpsTask> same_node,
                                            const BusyProfile& scs, Time horizon,
                                            std::span<const Time> seeds = {},
                                            Time bound = kTimeInfinity) {
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
      r = reference_fps_response_time(same_node[i], same_node, scs, horizon, nullptr,
                                      seeds.empty() ? 0 : seeds[i]);
    }
    sum = sat_add(sum, is_infinite(r) ? horizon : r);
    remaining -= floor_of(i);
  }
  return sum;
}

namespace placement_detail {

/// A time-triggered job: one hyper-period instance of an SCS task or an ST
/// message.
struct Job {
  ActivityRef activity;
  int instance = 0;
  Time release = 0;
};

/// Per-node CPU timeline during construction: sorted disjoint busy
/// intervals, linear gap search (tables have at most a few hundred jobs).
class Timeline {
 public:
  /// Up to `max_candidates` gap start times >= asap where a job of length
  /// `len` fits, written into `out` (cleared first; caller-owned scratch).
  /// The final candidate list always contains at least one entry (the gap
  /// after the last interval is unbounded).
  void gap_candidates(Time asap, Time len, int max_candidates, std::vector<Time>& out) const {
    out.clear();
    Time cursor = asap;
    for (const Interval& iv : busy_) {
      if (iv.end <= cursor) continue;
      if (iv.start >= cursor + len) {
        out.push_back(cursor);
        if (static_cast<int>(out.size()) >= max_candidates) return;
      }
      cursor = std::max(cursor, iv.end);
    }
    out.push_back(cursor);
  }

  /// Earliest start >= from where a job of length `len` fits.
  [[nodiscard]] Time earliest_fit(Time from, Time len) const {
    Time cursor = from;
    for (const Interval& iv : busy_) {
      if (iv.end <= cursor) continue;
      if (iv.start >= cursor + len) return cursor;
      cursor = std::max(cursor, iv.end);
    }
    return cursor;
  }

  void insert(Time start, Time len) {
    const Interval iv{start, start + len};
    const auto pos = std::lower_bound(
        busy_.begin(), busy_.end(), iv,
        [](const Interval& a, const Interval& b) { return a.start < b.start; });
    busy_.insert(pos, iv);
  }

  [[nodiscard]] const std::vector<Interval>& intervals() const { return busy_; }

 private:
  std::vector<Interval> busy_;
};

/// Modified critical-path priority [12]: longest remaining path (task WCETs
/// plus message communication times) from the activity to a graph sink.
/// `message_reserve` is added per message hop; 0 gives the pure priority
/// metric, one bus cycle gives the ALAP delay bound (a message may have to
/// wait almost a full cycle for its next owned slot).
inline std::vector<Time> critical_paths(const BusLayout& layout, Time message_reserve) {
  const Application& app = layout.application();
  const auto& topo = app.topological_order();
  std::vector<Time> path(app.activity_count(), 0);
  auto slot = [&](ActivityRef a) {
    return a.is_task() ? a.index : app.task_count() + a.index;
  };
  auto cost_of = [&](ActivityRef a) {
    return a.is_task() ? app.task(a.as_task()).wcet
                       : layout.message_duration(a.as_message()) + message_reserve;
  };
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    Time best_succ = 0;
    for (const ActivityRef s : app.successors(*it)) {
      best_succ = std::max(best_succ, path[slot(s)]);
    }
    path[slot(*it)] = best_succ + cost_of(*it);
  }
  return path;
}

inline bool is_tt(const Application& app, ActivityRef a) {
  return a.is_task() ? app.task(a.as_task()).policy == TaskPolicy::Scs
                     : app.message(a.as_message()).cls == MessageClass::Static;
}

}  // namespace placement_detail

/// The list scheduler with from-zero base responses per scored job.
/// `base_cap_hits` (optional) counts the base recurrences stopped at the
/// iteration cap.
inline Expected<StaticSchedule> oracle_build_static_schedule(const BusLayout& layout,
                                                            const SchedulerOptions& options,
                                                            int* base_cap_hits = nullptr) {
  using namespace placement_detail;
  const Application& app = layout.application();
  const auto hp = app.hyperperiod();
  if (!hp.ok()) return hp.error();
  const Time H = hp.value();

  StaticSchedule schedule(H, app.node_count(), app.task_count(), app.message_count());

  auto slot_of = [&](ActivityRef a) {
    return a.is_task() ? a.index : app.task_count() + a.index;
  };

  // Enumerate TT jobs: one per instance of each SCS task / ST message.
  // Job key: (activity slot, instance).
  struct JobState {
    Job job;
    std::size_t unscheduled_tt_preds = 0;
    Time asap = 0;        // max finish over scheduled TT predecessors, and release
    Time finish = kTimeNone;
  };
  // jobs indexed by (slot, instance) via map from slot -> vector.
  std::vector<std::vector<JobState>> jobs(app.activity_count());
  for (const ActivityRef a : app.topological_order()) {
    if (!is_tt(app, a)) continue;
    const Time period = app.period_of(a);
    const auto instances = static_cast<int>(H / period);
    auto& vec = jobs[slot_of(a)];
    vec.reserve(static_cast<std::size_t>(instances));
    for (int k = 0; k < instances; ++k) {
      JobState js;
      js.job = Job{a, k, static_cast<Time>(k) * period};
      js.asap = js.job.release;
      if (a.is_task()) js.asap += app.task(a.as_task()).release_offset;
      for (const ActivityRef p : app.predecessors(a)) {
        // ET predecessors of TT activities are rejected by finalize(); all
        // predecessors here are TT and constrain readiness.
        if (is_tt(app, p)) ++js.unscheduled_tt_preds;
      }
      vec.push_back(js);
    }
  }

  const std::span<const Time> deadlines = app.deadlines();
  const std::vector<Time> priority = critical_paths(layout, 0);
  // Delay budget for FPS-aware placement: reserve a full bus cycle per
  // downstream message hop (worst-case slot wait) so delaying an SCS task
  // cannot by itself sink its TT chain.
  const std::vector<Time> alap_reserve = critical_paths(layout, layout.cycle_len());

  // Ready pool ordered by (critical path desc, release asc, slot asc,
  // instance asc).
  struct ReadyKey {
    Time path;
    Time release;
    std::size_t slot;
    int instance;
    bool operator<(const ReadyKey& o) const {
      if (path != o.path) return path > o.path;
      if (release != o.release) return release < o.release;
      if (slot != o.slot) return slot < o.slot;
      return instance < o.instance;
    }
  };
  // Binary heap (keys are unique, so pop order matches the old std::set
  // iteration order exactly) — avoids a node allocation per push.
  std::vector<ReadyKey> ready;
  const auto ready_after = [](const ReadyKey& a, const ReadyKey& b) { return b < a; };
  auto ready_push = [&](const ReadyKey& k) {
    ready.push_back(k);
    std::push_heap(ready.begin(), ready.end(), ready_after);
  };
  auto make_key = [&](const JobState& js) {
    return ReadyKey{priority[slot_of(js.job.activity)], js.job.release,
                    slot_of(js.job.activity), js.job.instance};
  };
  std::size_t total_jobs = 0;
  for (auto& vec : jobs) {
    for (auto& js : vec) {
      ++total_jobs;
      if (js.unscheduled_tt_preds == 0) ready_push(make_key(js));
    }
  }

  // Per-node CPU timelines and FPS task parameter lists (zero jitter during
  // table construction; the holistic loop refines jitters afterwards).
  std::vector<Timeline> timelines(app.node_count());
  std::vector<std::vector<ReferenceFpsTask>> fps_on_node(app.node_count());
  for (std::uint32_t t = 0; t < app.task_count(); ++t) {
    const Task& task = app.tasks()[t];
    if (task.policy != TaskPolicy::Fps) continue;
    fps_on_node[index_of(task.node)].push_back(ReferenceFpsTask{
        static_cast<TaskId>(t), task.wcet, app.graph(task.graph).period, 0, task.priority});
  }

  // ST slot occupancy: used transmission time per (cycle, slot).
  std::map<std::pair<std::int64_t, int>, Time> slot_used;
  const Time cycle_len = layout.cycle_len();
  const Time slot_len = layout.config().static_slot_len;

  // Scratch for the candidate ranking below, reused across all jobs of this
  // build so the hot loop allocates only while growing to its high-water
  // capacity.
  std::vector<Time> starts;
  std::vector<Interval> base_merged;
  std::vector<Interval> cand_merged;
  BusyProfile base_profile;
  BusyProfile cand_profile;
  std::vector<Time> base_seeds;

  // Clamps `sorted` (busy intervals ordered by start) to [0, H], drops empty
  // intervals, merges overlap/adjacency, and splices in the optional `extra`
  // interval at its sorted position — producing exactly the interval list
  // that BusyProfile's normalizing constructor would for the same input,
  // without the per-candidate copy + sort.
  const auto clamp_merge_into = [H](std::span<const Interval> sorted,
                                    std::vector<Interval>& out, const Interval* extra) {
    out.clear();
    const auto clamped = [H](Interval iv) {
      iv.start = std::clamp<Time>(iv.start, 0, H);
      iv.end = std::clamp<Time>(iv.end, 0, H);
      return iv;
    };
    const auto emit = [&out](const Interval& iv) {
      if (iv.length() <= 0) return;
      if (!out.empty() && iv.start <= out.back().end) {
        out.back().end = std::max(out.back().end, iv.end);
      } else {
        out.push_back(iv);
      }
    };
    Interval pending{};
    bool has_pending = extra != nullptr;
    if (has_pending) pending = clamped(*extra);
    for (const Interval& raw : sorted) {
      const Interval iv = clamped(raw);
      if (has_pending && pending.start <= iv.start) {
        emit(pending);
        has_pending = false;
      }
      emit(iv);
    }
    if (has_pending) emit(pending);
  };

  auto schedule_tt_task = [&](JobState& js) {
    const Task& task = app.task(js.job.activity.as_task());
    const std::size_t node = index_of(task.node);
    Timeline& tl = timelines[node];

    const int candidates = options.placement == Placement::Asap ? 1
                                                                : options.placement_candidates;
    tl.gap_candidates(js.asap, task.wcet, candidates, starts);
    if (options.placement == Placement::MinimizeFpsImpact && !fps_on_node[node].empty()) {
      // The first-fit gaps all hug the existing SCS clump, which is exactly
      // what hurts FPS tasks (one long busy window).  Add deliberately
      // *delayed* placements spread over the remaining laxity so the
      // evaluation below can choose to fragment the table instead
      // (Fig. 2 line 11: place the task so FPS response times stay small).
      // Every candidate — spread or first-fit — is bounded ALAP-style: the
      // critical-path remainder (successor tasks, plus one bus cycle of
      // slot wait per message hop) is reserved, so no placement choice can
      // by itself push this task's TT chain past its deadline.
      const Time deadline = deadlines[slot_of(js.job.activity)];
      const Time latest =
          js.job.release + deadline - alap_reserve[slot_of(js.job.activity)];
      const Time span = latest - js.asap;
      if (span > 0) {
        for (int j = 1; j < std::max(2, options.placement_candidates); ++j) {
          const Time probe = js.asap + span * j / std::max(2, options.placement_candidates);
          const Time fitted = tl.earliest_fit(probe, task.wcet);
          if (fitted <= latest) starts.push_back(fitted);
        }
      }
      std::sort(starts.begin(), starts.end());
      starts.erase(std::unique(starts.begin(), starts.end()), starts.end());
      // Keep the earliest candidate unconditionally (there must be one),
      // drop everything beyond the ALAP bound.
      while (starts.size() > 1 && starts.back() > latest) starts.pop_back();
    }
    Time chosen = starts.front();
    if (options.placement == Placement::MinimizeFpsImpact && starts.size() > 1 &&
        !fps_on_node[node].empty()) {
      const std::span<const ReferenceFpsTask> fps(fps_on_node[node]);
      // Every candidate profile is the base timeline plus one interval, so
      // each task's converged busy value against the *base* profile is a
      // least-fixed-point lower bound for its candidate recurrence — a safe
      // seed (see fps_analysis.hpp).  Computing the base responses once per
      // job lets each candidate's fixed point start near its answer instead
      // of at zero: bit-identical costs, a fraction of the iterations.
      // (fps_on_node jitters are all zero here, so the returned response
      // equals the pre-jitter busy value the seed contract requires.)
      clamp_merge_into(tl.intervals(), base_merged, nullptr);
      base_profile.assign_normalized(base_merged, H);
      base_seeds.clear();
      for (const ReferenceFpsTask& t : fps) {
        base_seeds.push_back(reference_fps_response_time(t, fps, base_profile, 4 * H, nullptr,
                                                         0, base_cap_hits));
      }
      Time best_cost = kTimeInfinity;
      for (const Time s : starts) {
        const Interval extra{s % H, s % H + task.wcet};
        clamp_merge_into(tl.intervals(), cand_merged, &extra);
        cand_profile.assign_normalized(cand_merged, H);
        // Bounded by the best cost so far: a candidate stops as soon as its
        // partial sum plus the other tasks' seeds reaches it, since it can
        // then no longer win.  Prefer lower FPS impact; ties go to the
        // earlier start so the schedule stays as compact as ASAP placement
        // allows.
        const Time cost =
            reference_fps_response_time_sum(fps, cand_profile, 4 * H, base_seeds, best_cost);
        if (cost < best_cost) {
          best_cost = cost;
          chosen = s;
        }
      }
    }
    tl.insert(chosen, task.wcet);
    js.finish = chosen + task.wcet;
    schedule.add_task_entry(
        ScheduledTask{js.job.activity.as_task(), js.job.instance, js.job.release, chosen,
                      js.finish},
        node);
    return true;
  };

  auto schedule_st_msg = [&](JobState& js) -> bool {
    const MessageId mid = js.job.activity.as_message();
    const Message& msg = app.message(mid);
    const NodeId sender_node = app.task(msg.sender).node;
    const auto& owned_slots = layout.static_slots_of(sender_node);
    const Time duration = layout.message_duration(mid);

    // Earliest bus cycle whose ST segment could start at or after ASAP is
    // floor(asap / cycle); slots within it may still start before ASAP, so
    // scan forward.
    std::int64_t cycle = js.asap / cycle_len;
    const std::int64_t last_cycle = cycle + options.max_slot_search_cycles;
    for (; cycle <= last_cycle; ++cycle) {
      for (const int s : owned_slots) {
        const Time slot_start = cycle * cycle_len + layout.static_slot_start(s);
        if (slot_start < js.asap) continue;
        Time& used = slot_used[{cycle, s}];
        if (used + duration > slot_len) continue;
        const Time start = slot_start + used;
        used += duration;
        // Frame semantics: the receiver CHI exposes the payload at the end
        // of the slot, so delivery (finish) is the slot boundary even when
        // several messages are packed into one frame.
        js.finish = slot_start + slot_len;
        schedule.add_message_entry(ScheduledMessage{mid, js.job.instance, js.job.release,
                                                    cycle, s, start, js.finish});
        return true;
      }
    }
    return false;
  };

  std::size_t scheduled = 0;
  while (!ready.empty()) {
    std::pop_heap(ready.begin(), ready.end(), ready_after);
    const ReadyKey key = ready.back();
    ready.pop_back();
    JobState& js = jobs[key.slot][static_cast<std::size_t>(key.instance)];

    const bool ok = js.job.activity.is_task() ? schedule_tt_task(js) : schedule_st_msg(js);
    if (!ok) {
      return make_error("list scheduler: no ST slot found for message '" +
                        app.activity_name(js.job.activity) + "' within the search bound");
    }
    ++scheduled;

    // Release successors (same instance index; graphs are self-contained).
    for (const ActivityRef succ : app.successors(js.job.activity)) {
      auto& svec = jobs[slot_of(succ)];
      if (svec.empty()) continue;  // ET successor: not part of the table
      JobState& sjs = svec[static_cast<std::size_t>(js.job.instance)];
      sjs.asap = std::max(sjs.asap, js.finish);
      if (--sjs.unscheduled_tt_preds == 0) ready_push(make_key(sjs));
    }
  }

  if (scheduled != total_jobs) {
    return make_error("list scheduler: precedence deadlock (internal error)");
  }

  schedule.finalize();
  return schedule;
}

}  // namespace flexopt::testing
