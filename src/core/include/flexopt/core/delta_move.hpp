#pragma once

/// \file delta_move.hpp
/// One neighbour mutation of a configuration: the post-move configuration
/// of one cluster, stamped with that cluster's index.  Optimisers hand the
/// evaluator a DeltaMove together with the incumbent SystemConfig it is a
/// neighbour of (CostEvaluator::evaluate(base, move)); the evaluator
/// substitutes the move into `base` and picks the analysis path.  The
/// analysis always starts from scratch, so the result depends only on the
/// substituted configuration, never on how the move was derived.

#include <utility>

#include "flexopt/flexray/bus_config.hpp"
#include "flexopt/model/cluster_backend.hpp"

namespace flexopt {

/// The neighbour configuration of one cluster.  Build one with
/// DeltaMove::flexray or DeltaMove::tsn_between.
struct DeltaMove {
  /// Which backend's configuration the move replaces.  FlexRay moves carry
  /// `config`; TSN moves carry `tsn`.  It must match the backend of the
  /// cluster it is substituted into.
  ClusterBackendKind backend = ClusterBackendKind::FlexRay;

  /// The post-move configuration (of one cluster's bus).
  BusConfig config;

  /// The post-move TSN configuration (meaningful iff backend == Tsn).
  TsnConfig tsn;
  /// True when the TSN payload differs from its base (tsn_between's diff).
  bool tsn_changed = false;

  /// Cluster whose config the move replaces in the evaluator's base
  /// SystemConfig; 0 for single-cluster systems.
  int cluster = 0;

  /// The FlexRay move to `next` on cluster `cluster`.
  [[nodiscard]] static DeltaMove flexray(BusConfig next, int cluster = 0);

  /// Forwarder kept for the benchmark harness: flexray(next), base unread.
  [[nodiscard]] static DeltaMove between(const BusConfig& /*base*/, BusConfig next) {
    return flexray(std::move(next));
  }

  /// Diffs a TSN neighbour against its base for cluster `cluster`.
  [[nodiscard]] static DeltaMove tsn_between(const TsnConfig& base, TsnConfig next, int cluster);
};

}  // namespace flexopt
