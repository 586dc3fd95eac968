#include "flexopt/core/bbc.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

#include "flexopt/core/config_builder.hpp"
#include "flexopt/core/detail/batch_sweep.hpp"
#include "flexopt/core/solve_types.hpp"

namespace flexopt {

OptimizationOutcome optimize_bbc(CostEvaluator& evaluator, const SystemConfig& system,
                                 int cluster, const BbcOptions& options,
                                 SolveControl* control) {
  const auto t0 = std::chrono::steady_clock::now();
  const Application& app = *evaluator.system_model().cluster_app(static_cast<std::size_t>(cluster));
  const BusParams& params = evaluator.params();
  const long evals_before = evaluator.evaluations();

  OptimizationOutcome outcome;
  outcome.algorithm = "BBC";

  // Fig. 5 lines 1-4: FrameIDs by criticality, minimal static segment.
  BusConfig base;
  base.frame_id = assign_frame_ids_by_criticality(app, params);
  const std::vector<NodeId> senders = st_sender_nodes(app);
  base.static_slot_count = static_cast<int>(senders.size());
  base.static_slot_len = min_static_slot_len(app, params);
  base.static_slot_owner = senders;  // one slot per sender, round robin

  const Time st_len = static_cast<Time>(base.static_slot_count) * base.static_slot_len;
  const DynBounds bounds = dyn_segment_bounds(app, params, st_len);
  if (!bounds.feasible()) {
    outcome.evaluations = evaluator.evaluations() - evals_before;
    return outcome;  // no admissible DYN length: report invalid-cost outcome
  }

  int stride = options.dyn_stride_minislots;
  if (stride <= 0) {
    const int span = bounds.max_minislots - bounds.min_minislots;
    stride = std::max(1, span / std::max(1, options.max_sweep_points - 1));
  }

  // Fig. 5 lines 5-12: sweep the DYN segment length in parallel batches,
  // keep the best cost (in-order strictly-better selection == serial sweep).
  detail::batched_minislot_sweep(
      evaluator, system, cluster, base, bounds.min_minislots, bounds.max_minislots, stride, control,
      [&](int minislots, const CostEvaluator::Evaluation& eval) {
        if (eval.cost.value < outcome.cost.value) {
          outcome.cost = eval.cost;
          outcome.config = base;
          outcome.config.minislot_count = minislots;
          outcome.feasible = eval.cost.schedulable;
          if (control != nullptr) control->note_best(outcome.cost);
        }
      });

  outcome.evaluations = evaluator.evaluations() - evals_before;
  outcome.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return outcome;
}

}  // namespace flexopt
