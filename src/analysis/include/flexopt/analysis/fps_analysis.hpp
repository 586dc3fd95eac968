#pragma once

/// \file fps_analysis.hpp
/// Worst-case response times of FPS tasks executing in the slack of the
/// static schedule (Section 5, item 1: "take into consideration the
/// interference from the SCS activities").
///
/// Model: on each node, SCS jobs occupy the CPU at table-fixed times
/// (non-preemptable, effectively highest priority); FPS tasks are
/// priority-preemptive among themselves in the remaining slack.  The
/// response-time recurrence is the classic jitter-aware one extended with a
/// term S(w) = maximum SCS busy time in any window of length w:
///
///   w = C_i + S(w) + sum_{j in hp(i)} ceil((w + J_j) / T_j) * C_j
///   R_i = J_i + w
///
/// S(w) upper-bounds the table interference for every possible critical
/// instant, which makes the analysis sustainable (release-time independent)
/// at the cost of some pessimism; the simulator-based property tests bound
/// that pessimism.
///
/// Every caller — the list scheduler's placement scoring, the holistic
/// fixed point and the TSN analysis — runs the recurrence through one
/// prepared kernel, fps_response_time: each task's interferer list is
/// built once (FpsTaskSet), so a call neither filters by priority nor
/// divides for the load pre-test.

#include <cstdint>
#include <span>
#include <vector>

#include "flexopt/analysis/busy_profile.hpp"
#include "flexopt/model/ids.hpp"
#include "flexopt/util/time.hpp"

namespace flexopt {

class Application;

/// Per-task description of an FPS task: the input of FpsTaskSet::add_node.
/// Release jitters are not part of it: the kernel takes them per call.
struct FpsTaskParams {
  TaskId id{};
  Time wcet = 0;
  Time period = 0;
  /// Smaller = higher priority.
  int priority = 0;
};

/// Iterations after which an FPS recurrence gives up and reports the task
/// unbounded although the iterate never crossed the horizon (`Capped`).
inline constexpr int kFpsIterationCap = 10'000;

/// One interferer of a prepared FPS task.
struct FpsInterferer {
  std::uint32_t task = 0;  ///< task index: the interferer's jitter slot
  Time wcet = 0;
  Time period = 0;
  double utilisation = 0.0;  ///< wcet / period
};

/// An FPS task prepared for the kernel.
struct FpsTask {
  std::uint32_t task = 0;  ///< task index: this task's jitter slot
  int priority = 0;
  Time wcet = 0;
  double utilisation = 0.0;  ///< wcet / period
  /// The interferers — same-node tasks with priority <= this task's
  /// (equal priorities interfere both ways: conservative, FIFO-agnostic),
  /// itself excluded, in node order — are
  /// FpsTaskSet::interferers[interferers_begin, interferers_end).
  std::uint32_t interferers_begin = 0;
  std::uint32_t interferers_end = 0;
};

/// The FPS tasks of an application, prepared once and grouped by node.
struct FpsTaskSet {
  /// Node groups in node order: node n's tasks are
  /// tasks[node_begin[n], node_begin[n + 1]).
  std::vector<FpsTask> tasks;
  std::vector<std::uint32_t> node_begin{0};
  std::vector<FpsInterferer> interferers;

  /// Appends `group` — the FPS tasks of one node, in the order the node
  /// lists them — as the next node.
  void add_node(std::span<const FpsTaskParams> group);

  [[nodiscard]] std::span<const FpsTask> node(std::size_t n) const {
    return {tasks.data() + node_begin[n], node_begin[n + 1] - node_begin[n]};
  }
  [[nodiscard]] std::span<const FpsInterferer> interferers_of(const FpsTask& t) const {
    return {interferers.data() + t.interferers_begin, t.interferers_end - t.interferers_begin};
  }
};

/// Every FPS task of `app`, one node group per node, ascending task index
/// within a node.
FpsTaskSet prepare_fps_tasks(const Application& app);

/// How a recurrence ended.
enum class FpsStop : std::uint8_t {
  Converged,  ///< the least fixed point, at most the horizon
  /// Proven unbounded: an infinite jitter or a level-i load above 1 (no
  /// iteration), or an iterate past the horizon.  Either proof holds
  /// against more SCS interference too.
  Unbounded,
  Capped,  ///< stopped at max_iterations inside the horizon: undecided
};

struct FpsResponse {
  /// R_i = J_i + w when Converged, else kTimeInfinity.
  Time response = kTimeInfinity;
  /// Evaluations of the recurrence body (the profiling counters' work axis).
  int iterations = 0;
  FpsStop stop = FpsStop::Converged;
};

/// Per-interferer release counts of the kernel, reused across calls (one
/// per arena or scheduler build; the steady state is allocation-free).
struct FpsScratch {
  struct Releases {
    Time reach = 0;   ///< releases * period: window ends up to it need no recount
    Time demand = 0;  ///< releases * wcet, saturating
  };
  std::vector<Releases> releases;
};

/// Response time of `task` (including its own jitter `jitter[task.task]`)
/// when competing with `interferers` (FpsTaskSet::interferers_of(task);
/// their jitters are read from `jitter` too) in the slack of `scs`.
/// kTimeInfinity unless the recurrence converges within `horizon`.
///
/// The release counts ceil((w + J_j) / T_j) are kept per interferer in
/// `scratch` and recounted only when w crosses a release, which the
/// monotone iteration makes the exception.  The load pre-test sums the
/// prepared utilisations in node order, as a division per term would.
///
/// Seed and iteration-bound contract (see iterate_to_fixed_point): `seed`
/// is a pre-jitter starting value for w.  A least-fixed-point lower bound
/// — e.g. the converged w of the same task against a subset of the SCS
/// interference — leaves the least fixed point unchanged and shrinks the
/// iteration count.  The result equals the unseeded call's whenever the
/// unseeded recurrence converges within `max_iterations`; it can differ
/// when it does not, since the seeded run, starting closer, may converge
/// where the unseeded one is Capped.  And when a from-zero run on profile
/// P converges in k iterations, the from-zero run on any superset profile
/// P' needs at most k + k' iterations, where k' is the count of the run on
/// P' seeded with P's answer (the unseeded iterates on P' dominate those on
/// P).  The list scheduler's reuse of converged responses rests on that
/// bound; the holistic fixed point calls the kernel unseeded.
FpsResponse fps_response_time(const FpsTask& task, std::span<const FpsInterferer> interferers,
                              std::span<const Time> jitter, const BusyProfile& scs, Time horizon,
                              FpsScratch& scratch, Time seed = 0,
                              int max_iterations = kFpsIterationCap);

}  // namespace flexopt
