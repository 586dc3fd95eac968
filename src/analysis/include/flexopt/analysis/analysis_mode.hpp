#pragma once

/// \file analysis_mode.hpp
/// The analysis-backend vocabulary shared by analyze_system,
/// analyze_multicluster, CostEvaluator, and the campaign runner: which
/// backend computes the ET (DYN-segment) worst-case response times, the
/// knobs of the exact schedule-space exploration, and the per-cluster
/// record of what the exact backend actually did (refinement statistics
/// plus the holistic reference bounds the pessimism report is computed
/// against).

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "flexopt/util/expected.hpp"
#include "flexopt/util/time.hpp"

namespace flexopt {

/// Which backend produces the ET response-time bounds of an analysis run.
///
///  * Holistic — the paper's fixed-point bound (safe, pessimistic).
///  * Exact — schedule-space exploration of the DYN arbitration refines the
///    holistic bound per FlexRay cluster; the result is clamped to the
///    holistic bound, so exact <= holistic activity-wise by construction.
///  * Simulate — analysis-wise identical to Holistic; the campaign runner
///    additionally replays every winner on the network simulator (the
///    sim_check lane) so the three-way holistic/exact/observed comparison
///    can be driven from one spec axis.
enum class AnalysisMode { Holistic, Exact, Simulate };

[[nodiscard]] const char* to_string(AnalysisMode mode);
[[nodiscard]] Expected<AnalysisMode> parse_analysis_mode(std::string_view text);

/// Knobs of the exact DYN schedule-space exploration.
struct ExactOptions {
  /// Exploration budget: total states expanded per cluster before the
  /// backend gives up and falls back to the holistic bound
  /// (ExactFallback::BudgetExceeded — recorded, never silent).
  std::uint64_t max_states = 1u << 16;
  /// Upper bound on the per-state "maybe ready" set (clamped to 20): each
  /// maybe message can double the walks of a cycle step, so a set larger
  /// than this triggers the budget fallback instead of 2^k successor
  /// blow-up.
  int max_branch_messages = 12;
  /// Pairwise dominance merging: a frontier state whose per-message
  /// transmitted counts are pointwise >= another's is dropped — the less
  /// progressed state carries at least as much backlog into every future
  /// cycle, so its reachable finish times cover the dropped state's.
  bool prune_dominated = true;
  /// Frontier size above which the O(n^2) dominance sweep is skipped for
  /// that cycle (identical-state merging still applies).
  std::size_t dominance_sweep_limit = 256;
  /// Job-release window of the exploration in hyper-periods.  All jobs
  /// released in [0, H * hyperperiods) are explored to completion (plus
  /// drain cycles up to the analysis horizon).  A window past the Time
  /// range, or more than UINT32_MAX jobs of one message in it, records
  /// ExactFallback::InvalidOptions.
  int hyperperiods = 1;
  /// Accepted and ignored: the exploration is serial on the calling
  /// thread.  Parallelism lives at the campaign-scenario and portfolio
  /// level.  Kept so that spec files and callers that set it still work.
  int jobs = 1;
  /// Reuse explored per-cluster schedule spaces across neighbour moves:
  /// when an AnalysisComponentCache is available, exploration results are
  /// keyed by the cluster's DYN-geometry sub-hash plus the converged release
  /// jitters, horizon and exploration knobs, so a move that leaves a
  /// cluster's DYN inputs untouched replays the surviving frontier verbatim
  /// instead of re-exploring from the empty state.  A hit is bit-identical
  /// to a cold run (the exploration is a pure function of the key).
  bool reuse_base_frontier = true;

  friend bool operator==(const ExactOptions&, const ExactOptions&) = default;

  /// The fields that determine the exploration *result* (bounds and
  /// counters).  `jobs` and `reuse_base_frontier` are execution knobs with
  /// bit-identical outcomes, so cache keys must ignore them.
  [[nodiscard]] bool same_semantics(const ExactOptions& other) const {
    return max_states == other.max_states &&
           max_branch_messages == other.max_branch_messages &&
           prune_dominated == other.prune_dominated &&
           dominance_sweep_limit == other.dominance_sweep_limit &&
           hyperperiods == other.hyperperiods;
  }
};

/// Why a cluster kept its holistic bounds instead of exact refinements.
enum class ExactFallback {
  None,                ///< exploration ran and refined the cluster
  UnsupportedBackend,  ///< non-FlexRay cluster (TSN has no exact backend yet)
  NoDynMessages,       ///< nothing to refine: no DYN traffic on the bus
  NotConverged,        ///< holistic prerequisite diverged; no jitter bounds
  UnboundedJitter,     ///< some DYN release jitter is infinite
  BudgetExceeded,      ///< max_states / max_branch_messages hit mid-exploration
  InvalidOptions,      ///< zero budget, or a release window / job count out of range
};

[[nodiscard]] const char* to_string(ExactFallback fallback);

/// What the exact backend did for one cluster, attached to that cluster's
/// AnalysisResult (AnalysisResult::exact).  Also carries the holistic
/// completion bounds the exploration refined, so a pessimism report can be
/// derived from the exact result alone without re-running analysis.
struct ExactClusterInfo {
  ExactFallback fallback = ExactFallback::None;
  /// States expanded (frontier sizes summed over cycles).
  std::uint64_t explored_states = 0;
  /// States merged away (identical-key dedup + dominance pruning).
  std::uint64_t merged_states = 0;
  /// Cycle-step successors generated (incl. readiness/tie branches).
  std::uint64_t transitions = 0;
  /// DYN messages whose exact bound is strictly below the holistic one.
  std::size_t refined_messages = 0;
  /// Holistic reference bounds (graph-relative, kTimeInfinity = unbounded),
  /// indexed like the owning AnalysisResult's completion vectors.
  std::vector<Time> holistic_task_completion;
  std::vector<Time> holistic_message_completion;
};

}  // namespace flexopt
