#include "flexopt/core/delta_move.hpp"

#include <utility>

namespace flexopt {

DeltaMove DeltaMove::flexray(BusConfig next, int cluster) {
  DeltaMove move;
  move.config = std::move(next);
  move.cluster = cluster;
  return move;
}

DeltaMove DeltaMove::tsn_between(const TsnConfig& base, TsnConfig next, int cluster) {
  DeltaMove move;
  move.backend = ClusterBackendKind::Tsn;
  move.cluster = cluster;
  move.tsn_changed = !(base == next);
  move.tsn = std::move(next);
  return move;
}

}  // namespace flexopt
