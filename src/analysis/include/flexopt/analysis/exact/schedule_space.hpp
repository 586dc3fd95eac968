#pragma once

/// \file schedule_space.hpp
/// Exact DYN-segment schedule-space exploration (the np-schedulability-
/// analysis idea adapted to FlexRay FTDMA): a breadth-first reachability
/// walk over bus cycles whose states are keyed by the per-message
/// transmitted-job count, with identical-state merging and dominance
/// pruning.
///
/// The explored behaviour space is a superset of the simulator's: each DYN
/// job of message m released at r = k * T_m becomes ready (reaches the
/// sender CHI) somewhere in [r, r + J_m], where J_m is the converged
/// holistic release jitter — a sound bound on the sender's completion.  Per
/// cycle the walk classifies each pending head job as
///  * must-ready  (r + J_m <= earliest possible slot time of its FrameID) —
///    certainly in the CHI when its minislot arrives, or
///  * maybe-ready (released before the cycle ends) — the walk branches over
///    ready/not-ready,
/// and then replays the minislot arbitration exactly as the discrete-event
/// engine does (sim/engine.cpp DynSlot): walk FrameIDs from the segment
/// start, transmit the highest-priority ready head if the slot counter is
/// within the owner's pLatestTx, advance the counter by the frame's
/// minislot count (else by one).  Where the engine breaks priority ties by
/// CHI arrival order — unresolvable from intervals — the walk forks over
/// every tied candidate.  Supersets on every axis means: max explored
/// finish >= every finish the simulator can observe.
///
/// Lazy readiness branching: a maybe-ready head's readiness matters only
/// when the walk reaches its own FrameID with the slot counter within the
/// owner's pLatestTx, so the walk branches there, one priority level at a
/// time (every subset of the level's maybe-ready heads; the all-absent
/// subset falls through to the next level unless a must-ready head sits
/// on the level).  A finished walk that never decided u of the state's
/// maybe heads stands for the 2^u readiness subsets that all walk the same
/// way.
///
/// Dominance: of two states in the same cycle, the one with pointwise >=
/// transmitted counts has pointwise less backlog, so every future finish
/// reachable from it is also reachable (no later) from the less progressed
/// state; the more progressed state is dropped.
///
/// The engine is serial, with one flat frontier in reused buffers.  Each
/// cycle expands every state, staging each distinct successor key once
/// (open-addressing dedup over its FNV-1a hash), and sweeps the distinct
/// successors for dominance: all of them together when they are within
/// ExactOptions::dominance_sweep_limit; otherwise each hash group (the top
/// 5 bits of the key hash) within the limit on its own, then the
/// survivors together if they fit.  The hash group is the dominance scope
/// above the limit and nothing else.  A sweep keeps only the rows no other
/// row covers; the common case, one row equal to the pointwise minimum,
/// is found in one pass.
///
/// Counters: `explored_states` sums the frontier sizes; `transitions` and
/// `merged_states` count every readiness subset, so a finished walk adds
/// its 2^u multiplicity to both (a state reached by several subsets merges
/// all but once).

#include <cstdint>
#include <span>
#include <vector>

#include "flexopt/analysis/analysis_mode.hpp"
#include "flexopt/util/time.hpp"

namespace flexopt {

class BusLayout;

/// Outcome of one cluster's exploration.
struct ScheduleSpaceResult {
  ExactFallback fallback = ExactFallback::None;
  /// Worst explored finish per message, graph-relative, indexed by
  /// MessageId.  kTimeInfinity for ST messages and for DYN messages whose
  /// jobs did not all complete within the cycle horizon (no refinement) —
  /// i.e. exactly the values to feed analyze_system's dyn_message_caps.
  /// Empty when `fallback` != None.
  std::vector<Time> worst_completion;
  std::uint64_t explored_states = 0;  ///< frontier sizes summed over cycles
  /// Successors (counted per readiness subset) merged by identical keys
  /// or dropped by dominance.
  std::uint64_t merged_states = 0;
  std::uint64_t transitions = 0;  ///< finished cycle walks, per readiness subset
};

/// Explores all DYN jobs released in [0, hyperperiod * options.hyperperiods)
/// to completion, walking bus cycles up to `horizon` (use analysis_horizon).
/// `message_jitter` must hold finite converged holistic release jitters for
/// every DYN message (callers gate on convergence first).  A release window
/// or a per-message job count past the representable range records
/// ExactFallback::InvalidOptions.
[[nodiscard]] ScheduleSpaceResult explore_dyn_schedule_space(
    const BusLayout& layout, std::span<const Time> message_jitter, Time horizon,
    const ExactOptions& options);

}  // namespace flexopt
