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

#include <span>

#include "flexopt/analysis/busy_profile.hpp"
#include "flexopt/model/ids.hpp"
#include "flexopt/util/time.hpp"

namespace flexopt {

/// Per-task inputs of the FPS analysis.
struct FpsTaskParams {
  TaskId id{};
  Time wcet = 0;
  Time period = 0;
  /// Release jitter inherited from predecessors (holistic iteration).
  Time jitter = 0;
  /// Smaller = higher priority.
  int priority = 0;
};

/// Response time (including the task's own jitter) of `task` when competing
/// with `same_node` FPS tasks (which may include `task` itself; it is
/// skipped) in the slack of `scs`.  Tasks with priority <= task.priority
/// interfere (equal priorities are mutually interfering — conservative
/// FIFO-agnostic treatment).  Returns kTimeInfinity if the recurrence
/// exceeds `horizon` or any contributing jitter is infinite.
/// `fp_iterations` (optional) accumulates the fixed-point iteration count
/// (the profiling counters' work axis).  `seed` is a pre-jitter seed for
/// the busy-window iteration (see iterate_to_fixed_point): it must be a
/// least-fixed-point lower bound, e.g. the converged busy value of the
/// same task against a subset of the SCS interference.  Such a seed leaves
/// the least fixed point unchanged and shrinks the iteration count, so the
/// returned response equals the unseeded call's whenever the unseeded
/// recurrence converges within the 10,000-iteration cap.  It can differ
/// when it does not: the seeded run, starting closer, may converge where
/// the unseeded one stops at the cap and reports unbounded.  `cap_hits`
/// (optional) counts recurrences stopped at the cap (reported unbounded
/// although they never crossed the horizon).
Time fps_response_time(const FpsTaskParams& task, std::span<const FpsTaskParams> same_node,
                       const BusyProfile& scs, Time horizon, int* fp_iterations = nullptr,
                       Time seed = 0, int* cap_hits = nullptr);

/// Sum of response times of all tasks in `same_node` (infinite responses
/// are added as `horizon` each, keeping the sum finite and comparable).
/// Used by the list scheduler to rank candidate SCS placements
/// (Fig. 2, line 11).  `seeds` (optional, parallel to `same_node`) carries
/// per-task busy-value seeds computed against an interference *subset* —
/// the base placement profile; an infinite seed short-circuits that task
/// to an infinite response (exact: more interference can only grow a
/// diverged recurrence).  With and without seeds the sum is the same unless
/// an unseeded recurrence stops at the iteration cap (see
/// fps_response_time).
///
/// `bound` prunes: the result is the exact sum when that is below `bound`,
/// and otherwise some value >= `bound`.  Tasks are analysed in order, and
/// the call stops once the partial sum plus the remaining tasks' seed
/// floors (jitter + seed, at most `horizon`; 0 without seeds) reaches
/// `bound` — the list scheduler passes its best candidate's cost so far.
Time fps_response_time_sum(std::span<const FpsTaskParams> same_node, const BusyProfile& scs,
                           Time horizon, std::span<const Time> seeds = {},
                           Time bound = kTimeInfinity);

}  // namespace flexopt
