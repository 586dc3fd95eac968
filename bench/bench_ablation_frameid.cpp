// Ablation A3 — FrameID assignment policy (Fig. 5 line 1 and Section 6.1
// guidelines): criticality-ordered unique FrameIDs (Eq. 4) vs declaration-
// order unique FrameIDs vs one shared FrameID per node.  Evaluated at the
// BBC configuration over the Fig. 9 workloads.

#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "flexopt/core/config_builder.hpp"
#include "flexopt/math/stats.hpp"
#include "flexopt/util/table.hpp"

using namespace flexopt;
using namespace flexopt::bench;

namespace {

/// Evaluate the BBC-shaped configuration under a given FrameID vector.
Cost evaluate_with_frame_ids(const Application& app, const BusParams& params,
                             std::vector<int> frame_ids) {
  BusConfig config;
  config.frame_id = std::move(frame_ids);
  const auto senders = st_sender_nodes(app);
  config.static_slot_count = static_cast<int>(senders.size());
  config.static_slot_len = min_static_slot_len(app, params);
  config.static_slot_owner = senders;
  const DynBounds bounds = dyn_segment_bounds(
      app, params, static_cast<Time>(config.static_slot_count) * config.static_slot_len);
  if (!bounds.feasible()) return Cost{kInvalidConfigCost, false, 0};
  // A roomy mid-range segment keeps the comparison about FrameIDs only.
  config.minislot_count = std::min(bounds.max_minislots, bounds.min_minislots * 3 + 64);
  CostEvaluator evaluator(app, params, optimizer_analysis_options());
  const auto eval = evaluator.evaluate(SystemConfig::single(config));
  return eval.valid ? eval.cost : Cost{kInvalidConfigCost, false, 0};
}

}  // namespace

int main() {
  std::cout << "== Ablation A3: FrameID assignment policy ==\n";
  const Scale scale = Scale::current();
  scale.print(std::cout);
  const BusParams params = section7_params();

  Table table({"nodes", "criticality cost", "arbitrary cost", "shared/node cost",
               "crit sched", "arb sched", "shared sched"});
  for (int nodes = scale.min_nodes; nodes <= scale.max_nodes; ++nodes) {
    std::vector<double> c_crit, c_arb, c_shared;
    int s_crit = 0, s_arb = 0, s_shared = 0;
    for (int i = 0; i < scale.systems_per_size; ++i) {
      auto app = section7_system(nodes, i);
      if (!app.ok()) continue;
      const Cost crit = evaluate_with_frame_ids(
          app.value(), params, assign_frame_ids_by_criticality(app.value(), params));
      const Cost arb = evaluate_with_frame_ids(app.value(), params,
                                               assign_frame_ids_arbitrary(app.value()));
      const Cost shared = evaluate_with_frame_ids(
          app.value(), params, assign_frame_ids_shared_per_node(app.value()));
      if (crit.value < kInvalidConfigCost) c_crit.push_back(crit.value);
      if (arb.value < kInvalidConfigCost) c_arb.push_back(arb.value);
      if (shared.value < kInvalidConfigCost) c_shared.push_back(shared.value);
      s_crit += crit.schedulable ? 1 : 0;
      s_arb += arb.schedulable ? 1 : 0;
      s_shared += shared.schedulable ? 1 : 0;
    }
    auto frac = [&](int n) {
      return std::to_string(n) + "/" + std::to_string(scale.systems_per_size);
    };
    table.add_row({std::to_string(nodes), fmt_double(summarize(c_crit).mean, 1),
                   fmt_double(summarize(c_arb).mean, 1), fmt_double(summarize(c_shared).mean, 1),
                   frac(s_crit), frac(s_arb), frac(s_shared)});
  }
  table.print(std::cout);
  std::cout << "\nReading: unique criticality-ordered FrameIDs (the paper's guideline)\n"
               "dominate; sharing FrameIDs reintroduces the hp(m) whole-cycle delays\n"
               "of Fig. 4a.\n";
  return 0;
}
