#include "checks.hpp"

#include <cstring>

namespace perfbench {
namespace {

using flexopt::ActivityRef;
using flexopt::AnalysisResult;
using flexopt::Application;
using flexopt::Time;

constexpr Time kUnbounded = flexopt::kTimeInfinity;
constexpr Time kNotObserved = flexopt::kTimeNone;

std::string activity(std::size_t cluster, const char* kind, std::size_t index) {
  return "cluster " + std::to_string(cluster) + " " + kind + " " + std::to_string(index);
}

/// The per-cluster bounds of an evaluation: the single analysis of a
/// single-bus system, one per cluster otherwise.
std::vector<const AnalysisResult*> cluster_bounds(
    const flexopt::CostEvaluator::Evaluation& eval) {
  std::vector<const AnalysisResult*> out;
  if (eval.cluster_analysis.empty()) {
    out.push_back(&eval.analysis);
  } else {
    for (const AnalysisResult& r : eval.cluster_analysis) out.push_back(&r);
  }
  return out;
}

}  // namespace

std::string check_cost_reproduces(double reported_cost,
                                  const flexopt::CostEvaluator::Evaluation& fresh) {
  if (!fresh.valid) return "winner no longer analyses: " + fresh.error;
  if (std::memcmp(&reported_cost, &fresh.cost.value, sizeof(double)) != 0) {
    return "reported cost " + std::to_string(reported_cost) + " but re-evaluation gives " +
           std::to_string(fresh.cost.value);
  }
  return {};
}

std::string check_schedulability(const flexopt::SystemModel& model,
                                 const flexopt::CostEvaluator::Evaluation& fresh,
                                 bool reported) {
  if (!fresh.valid) return "winner no longer analyses: " + fresh.error;
  const auto bounds = cluster_bounds(fresh);
  if (bounds.size() != model.cluster_count()) return "evaluation has the wrong cluster count";
  bool schedulable = true;
  for (std::size_t c = 0; c < bounds.size() && schedulable; ++c) {
    const Application& app = *model.cluster_app(c);
    const AnalysisResult& r = *bounds[c];
    if (r.task_completion.size() != app.task_count() ||
        r.message_completion.size() != app.message_count()) {
      return "bounds of " + activity(c, "", 0) + " do not cover its activities";
    }
    for (std::uint32_t t = 0; t < app.task_count(); ++t) {
      const Time bound = r.task_completion[t];
      const Time deadline = app.effective_deadline(ActivityRef::task(flexopt::TaskId{t}));
      if (bound == kUnbounded || bound > deadline) schedulable = false;
    }
    for (std::uint32_t m = 0; m < app.message_count(); ++m) {
      const Time bound = r.message_completion[m];
      const Time deadline =
          app.effective_deadline(ActivityRef::message(flexopt::MessageId{m}));
      if (bound == kUnbounded || bound > deadline) schedulable = false;
    }
  }
  if (schedulable != reported) {
    return std::string("reported ") + (reported ? "schedulable" : "unschedulable") +
           " but the bounds say " + (schedulable ? "schedulable" : "unschedulable");
  }
  return {};
}

std::string check_flexray_limits(const flexopt::SystemConfig& winner,
                                 const flexopt::BusParams& params) {
  for (std::size_t c = 0; c < winner.clusters.size(); ++c) {
    const flexopt::ClusterConfig& cluster = winner.clusters[c];
    if (cluster.kind != flexopt::ClusterBackendKind::FlexRay) continue;
    const flexopt::BusConfig& bus = cluster.flexray;
    const std::string where = "cluster " + std::to_string(c) + ": ";
    if (bus.static_slot_count < 0 || bus.static_slot_count > kMaxStaticSlots) {
      return where + std::to_string(bus.static_slot_count) + " static slots";
    }
    if (bus.minislot_count < 0 || bus.minislot_count > kMaxMinislots) {
      return where + std::to_string(bus.minislot_count) + " minislots";
    }
    if (bus.static_slot_len < 0 ||
        bus.static_slot_len > kMaxStaticSlotMacroticks * params.gd_macrotick) {
      return where + "static slot of " + std::to_string(bus.static_slot_len) + " ns";
    }
    const Time cycle = static_cast<Time>(bus.static_slot_count) * bus.static_slot_len +
                       static_cast<Time>(bus.minislot_count) * params.gd_minislot;
    if (cycle > kMaxCycleNs) return where + "bus cycle of " + std::to_string(cycle) + " ns";
  }
  return {};
}

std::string check_budget(long evaluations, long budget) {
  if (budget > 0 && evaluations > budget) {
    return std::to_string(evaluations) + " analyses charged against a budget of " +
           std::to_string(budget);
  }
  return {};
}

std::string check_replay(const flexopt::SystemModel& model,
                         const flexopt::MulticlusterResult& bounds,
                         const flexopt::MulticlusterResult* holistic,
                         const flexopt::NetSimResult& observed) {
  const std::size_t clusters = model.cluster_count();
  if (bounds.clusters.size() != clusters || observed.clusters.size() != clusters ||
      (holistic != nullptr && holistic->clusters.size() != clusters)) {
    return "replay and analysis disagree on the cluster count";
  }
  // seen <= bound, and bound <= reference when a reference is given.
  auto compare = [](Time seen, Time bound, const Time* reference) -> std::string {
    if (seen != kNotObserved && seen > bound) {
      return "observed " + std::to_string(seen) + " > bound " + std::to_string(bound);
    }
    if (reference != nullptr && bound > *reference) {
      return "exact " + std::to_string(bound) + " > holistic " + std::to_string(*reference);
    }
    return {};
  };
  for (std::size_t c = 0; c < clusters; ++c) {
    const AnalysisResult& b = bounds.clusters[c];
    const auto& sim = observed.clusters[c];
    const Application& app = *model.cluster_app(c);
    if (sim.task_worst_completion.size() != app.task_count() ||
        sim.message_worst_completion.size() != app.message_count() ||
        b.task_completion.size() != app.task_count() ||
        b.message_completion.size() != app.message_count()) {
      return "replay of cluster " + std::to_string(c) + " does not cover its activities";
    }
    for (std::size_t t = 0; t < app.task_count(); ++t) {
      const Time* ref = holistic ? &holistic->clusters[c].task_completion[t] : nullptr;
      std::string v = compare(sim.task_worst_completion[t], b.task_completion[t], ref);
      if (!v.empty()) return activity(c, "task", t) + ": " + v;
    }
    for (std::size_t m = 0; m < app.message_count(); ++m) {
      const Time* ref = holistic ? &holistic->clusters[c].message_completion[m] : nullptr;
      std::string v = compare(sim.message_worst_completion[m], b.message_completion[m], ref);
      if (!v.empty()) return activity(c, "message", m) + ": " + v;
    }
  }
  return {};
}

}  // namespace perfbench
