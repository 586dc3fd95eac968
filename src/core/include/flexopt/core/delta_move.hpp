#pragma once

/// \file delta_move.hpp
/// One neighbour mutation of a configuration.  Optimisers that walk the
/// configuration space one move at a time (SA's neighbour loop, the OBC
/// DYN-length sweeps, the TSN descent) hand the evaluator a DeltaMove
/// instead of an opaque BusConfig.  A FlexRay move is analysed on the
/// evaluator's allocation-free delta path: the thread's reused arena plus
/// the component caches, which serve every schedule table the move left
/// intact.  The analysis itself always starts from scratch, so the result
/// does not depend on the base the move was derived from.

#include "flexopt/flexray/bus_config.hpp"
#include "flexopt/model/cluster_backend.hpp"

namespace flexopt {

/// The neighbour configuration of one cluster.  Build one with
/// DeltaMove::between (FlexRay) or DeltaMove::tsn_between (TSN).
struct DeltaMove {
  /// Which backend's configuration the move mutates.  FlexRay moves carry
  /// `config` and feed the arena analysis path; TSN moves carry `tsn` and
  /// are evaluated by full per-cluster re-analysis (substituted through
  /// CostEvaluator::evaluate_delta's system path, which Debug-asserts
  /// bit-exactness against the cache-free reference).
  ClusterBackendKind backend = ClusterBackendKind::FlexRay;

  /// The post-move configuration (of one cluster's bus).
  BusConfig config;

  /// The post-move TSN configuration (meaningful iff backend == Tsn).
  TsnConfig tsn;
  /// True when the TSN payload differs from its base (tsn_between's diff).
  bool tsn_changed = false;

  /// Cluster whose config the move mutates.  0 for single-bus systems;
  /// ignored (superseded by the focus cluster) when the evaluator is
  /// focused via CostEvaluator::set_focus.  between() leaves it 0 — cluster
  /// moves stamp it explicitly or are stamped by the evaluator.
  int cluster = 0;

  /// The FlexRay move from `base` to `next`.  The analysis does not read
  /// the base; the parameter keeps the call shape of every move site.
  [[nodiscard]] static DeltaMove between(const BusConfig& base, BusConfig next);

  /// Diffs a TSN neighbour against its base for cluster `cluster`.
  [[nodiscard]] static DeltaMove tsn_between(const TsnConfig& base, TsnConfig next, int cluster);
};

}  // namespace flexopt
