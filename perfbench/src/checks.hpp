#pragma once

/// \file checks.hpp
/// Output checks run after timing.  None compares against stored output:
/// each recomputes a property of the reported results from the inputs.
/// Every check returns an empty string when the property holds and a
/// description of the first violation otherwise.

#include <string>

#include "flexopt/analysis/multicluster.hpp"
#include "flexopt/core/evaluator.hpp"
#include "flexopt/flexray/params.hpp"
#include "flexopt/flexray/system_config.hpp"
#include "flexopt/model/system_model.hpp"
#include "flexopt/netsim/netsim.hpp"

namespace perfbench {

/// FlexRay limits of the paper's Section 6, held here independently of the
/// program's own constants.
inline constexpr int kMaxStaticSlots = 1023;
inline constexpr int kMaxMinislots = 7994;
inline constexpr flexopt::Time kMaxCycleNs = 16'000'000;
inline constexpr int kMaxStaticSlotMacroticks = 661;

/// 1. A winner re-evaluated on a fresh, cache-less evaluator (`fresh`)
/// reproduces the reported cost bit for bit.
std::string check_cost_reproduces(double reported_cost,
                                  const flexopt::CostEvaluator::Evaluation& fresh);

/// 2. Schedulability recomputed from the per-activity bounds of `fresh`
/// and the deadlines of every cluster's application equals `reported`.
std::string check_schedulability(const flexopt::SystemModel& model,
                                 const flexopt::CostEvaluator::Evaluation& fresh,
                                 bool reported);

/// 3. Every FlexRay cluster of `winner` respects the Section 6 limits.
std::string check_flexray_limits(const flexopt::SystemConfig& winner,
                                 const flexopt::BusParams& params);

/// 4. A solve charged no more analyses than its budget (0 = unbudgeted).
std::string check_budget(long evaluations, long budget);

/// 5. Every completion observed by the network simulator is within its
/// analysed bound in `bounds`; when `holistic` is given (exact cells),
/// every bound in `bounds` is also within its holistic counterpart, so
/// observed <= exact <= holistic.
std::string check_replay(const flexopt::SystemModel& model,
                         const flexopt::MulticlusterResult& bounds,
                         const flexopt::MulticlusterResult* holistic,
                         const flexopt::NetSimResult& observed);

}  // namespace perfbench
