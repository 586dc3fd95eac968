// DeltaMove construction, BusConfig sub-hash edges, and the move form
// CostEvaluator::evaluate(base, move): bit-equality with the full form for
// every neighbourhood move shape, config-cache integration of the delta path,
// and schedule-component reuse accounting across the full and delta
// paths.

#include <gtest/gtest.h>

#include <vector>

#include "flexopt/core/config_builder.hpp"
#include "flexopt/core/evaluator.hpp"
#include "flexopt/gen/cruise_control.hpp"
#include "helpers.hpp"

namespace flexopt {
namespace {

/// BBC-shaped base configuration for the cruise controller.
struct Fixture {
  Application app = build_cruise_controller();
  BusParams params = cruise_controller_params();
  BusConfig base;
  DynBounds bounds;

  Fixture() {
    const StartConfig start = minimal_start_config(app, params);
    EXPECT_TRUE(start.bounds.feasible());
    base = start.config;
    bounds = start.bounds;
    base.minislot_count = (bounds.min_minislots + bounds.max_minislots) / 2;
  }

  /// Indices of DYN messages (frame_id != 0), ascending.
  [[nodiscard]] std::vector<std::size_t> dyn_messages() const {
    std::vector<std::size_t> out;
    for (std::size_t m = 0; m < base.frame_id.size(); ++m) {
      if (base.frame_id[m] != 0) out.push_back(m);
    }
    return out;
  }
};

void expect_identical(const CostEvaluator::Evaluation& delta,
                      const CostEvaluator::Evaluation& full, const char* label) {
  ASSERT_EQ(delta.valid, full.valid) << label;
  if (!full.valid) {
    EXPECT_EQ(delta.error, full.error) << label;
    return;
  }
  EXPECT_EQ(delta.cost.value, full.cost.value) << label;
  EXPECT_EQ(delta.cost.schedulable, full.cost.schedulable) << label;
  EXPECT_EQ(delta.cost.unbounded_activities, full.cost.unbounded_activities) << label;
  EXPECT_EQ(delta.analysis.task_completion, full.analysis.task_completion) << label;
  EXPECT_EQ(delta.analysis.message_completion, full.analysis.message_completion) << label;
  EXPECT_EQ(delta.analysis.task_jitter, full.analysis.task_jitter) << label;
  EXPECT_EQ(delta.analysis.message_jitter, full.analysis.message_jitter) << label;
  EXPECT_EQ(delta.analysis.converged, full.analysis.converged) << label;
}

TEST(DeltaMove, FlexrayCarriesTheNeighbourAndItsCluster) {
  const Fixture f;
  BusConfig next = f.base;
  next.minislot_count += 1;
  const DeltaMove move = DeltaMove::flexray(next);
  EXPECT_EQ(move.backend, ClusterBackendKind::FlexRay);
  EXPECT_EQ(move.cluster, 0);
  EXPECT_EQ(move.config, next);
  EXPECT_EQ(DeltaMove::flexray(next, 2).cluster, 2);
}

TEST(ConfigSubHashes, FrameIdChangeKeepsGeometryKey) {
  const Fixture f;
  const auto dyn = f.dyn_messages();
  ASSERT_FALSE(dyn.empty());
  BusConfig next = f.base;
  next.frame_id[dyn.front()] += 1;
  const ConfigSubHashes a = config_subhashes(f.base);
  const ConfigSubHashes b = config_subhashes(next);
  EXPECT_EQ(a.geometry_key, b.geometry_key);
  EXPECT_NE(a.dyn_key, b.dyn_key);
}

TEST(ConfigSubHashes, OwnerChangeKeepsDynKey) {
  const Fixture f;
  ASSERT_GE(f.base.static_slot_owner.size(), 2u);
  BusConfig next = f.base;
  std::swap(next.static_slot_owner.front(), next.static_slot_owner.back());
  ASSERT_NE(next.static_slot_owner, f.base.static_slot_owner);
  const ConfigSubHashes a = config_subhashes(f.base);
  const ConfigSubHashes b = config_subhashes(next);
  EXPECT_NE(a.geometry_key, b.geometry_key);
  EXPECT_EQ(a.dyn_key, b.dyn_key);
}

TEST(ConfigSubHashes, MinislotChangeInvalidatesBothKeys) {
  const Fixture f;
  BusConfig next = f.base;
  next.minislot_count += 1;
  const ConfigSubHashes a = config_subhashes(f.base);
  const ConfigSubHashes b = config_subhashes(next);
  EXPECT_NE(a.geometry_key, b.geometry_key);
  EXPECT_NE(a.dyn_key, b.dyn_key);
}

TEST(EvaluateMove, MatchesFullForEveryMoveShape) {
  const Fixture f;
  const auto dyn = f.dyn_messages();
  ASSERT_GE(dyn.size(), 2u);
  const Time payload_step = SpecLimits::kPayloadStepBits * f.params.gd_bit;

  std::vector<std::pair<const char*, BusConfig>> neighbours;
  {
    BusConfig c = f.base;  // ST slot length move
    c.static_slot_len += payload_step;
    neighbours.emplace_back("slot-len", c);
  }
  {
    BusConfig c = f.base;  // DYN segment length move
    c.minislot_count = std::min(f.bounds.max_minislots, c.minislot_count + 16);
    neighbours.emplace_back("minislot", c);
  }
  {
    BusConfig c = f.base;  // slot ownership move
    std::swap(c.static_slot_owner.front(), c.static_slot_owner.back());
    neighbours.emplace_back("owner", c);
  }
  {
    BusConfig c = f.base;  // FrameID swap
    std::swap(c.frame_id[dyn.front()], c.frame_id[dyn.back()]);
    neighbours.emplace_back("fid-swap", c);
  }
  {
    BusConfig c = f.base;  // FrameID reassignment to a fresh slot
    int unused_fid = 0;
    for (const std::size_t m : dyn) unused_fid = std::max(unused_fid, f.base.frame_id[m]);
    ++unused_fid;
    ASSERT_LE(unused_fid, c.minislot_count);
    c.frame_id[dyn.front()] = unused_fid;
    neighbours.emplace_back("fid-move", c);
  }
  {
    BusConfig c = f.base;  // move touching both segments at once
    c.static_slot_len += payload_step;
    std::swap(c.frame_id[dyn.front()], c.frame_id[dyn.back()]);
    neighbours.emplace_back("both-segments", c);
  }

  CostEvaluator full(f.app, f.params, AnalysisOptions{});
  CostEvaluator delta(f.app, f.params, AnalysisOptions{});
  ASSERT_TRUE(full.evaluate(SystemConfig::single(f.base)).valid);
  ASSERT_TRUE(delta.evaluate(SystemConfig::single(f.base)).valid);
  const SystemConfig base = SystemConfig::single(f.base);
  for (const auto& [label, neighbour] : neighbours) {
    const DeltaMove move = DeltaMove::flexray(neighbour);
    expect_identical(delta.evaluate(base, move), full.evaluate(SystemConfig::single(neighbour)),
                     label);
  }
  EXPECT_EQ(delta.work_stats().delta_evaluations, neighbours.size());
}

TEST(EvaluateMove, NoChangeMoveIsServedFromTheCache) {
  const Fixture f;
  CostEvaluator evaluator(f.app, f.params, AnalysisOptions{});
  const auto base_eval = evaluator.evaluate(SystemConfig::single(f.base));
  ASSERT_TRUE(base_eval.valid);
  const auto hits_before = evaluator.cache_stats().hits;
  const auto again =
      evaluator.evaluate(SystemConfig::single(f.base), DeltaMove::flexray(f.base));
  EXPECT_EQ(again.cost.value, base_eval.cost.value);
  EXPECT_EQ(evaluator.cache_stats().hits, hits_before + 1);
  EXPECT_EQ(evaluator.work_stats().delta_evaluations, 0u);  // no analysis ran
}

TEST(EvaluateMove, FrameIdMoveReusesTheScheduleComponent) {
  const Fixture f;
  const auto dyn = f.dyn_messages();
  ASSERT_GE(dyn.size(), 2u);
  CostEvaluator evaluator(f.app, f.params, AnalysisOptions{});
  ASSERT_TRUE(evaluator.evaluate(SystemConfig::single(f.base)).valid);
  const EvaluatorWorkStats before = evaluator.work_stats();

  BusConfig first = f.base;
  std::swap(first.frame_id[dyn.front()], first.frame_id[dyn.back()]);
  ASSERT_TRUE(evaluator.evaluate(SystemConfig::single(f.base), DeltaMove::flexray(first)).valid);
  const EvaluatorWorkStats after_first = evaluator.work_stats();
  // The full-path evaluation above built the table into the component
  // cache the delta path reads: a FrameID swap keeps the geometry.
  EXPECT_EQ(after_first.analysis.schedule_builds, before.analysis.schedule_builds);
  EXPECT_EQ(after_first.analysis.schedule_reuses, before.analysis.schedule_reuses + 1);

  BusConfig second = first;
  int unused_fid = 0;
  for (const std::size_t m : dyn) unused_fid = std::max(unused_fid, first.frame_id[m]);
  ++unused_fid;
  ASSERT_LE(unused_fid, second.minislot_count);
  second.frame_id[dyn.front()] = unused_fid;
  ASSERT_TRUE(evaluator.evaluate(SystemConfig::single(first), DeltaMove::flexray(second)).valid);
  const EvaluatorWorkStats after_second = evaluator.work_stats();
  // Same ST/DYN geometry: the table is reused, never rebuilt.
  EXPECT_EQ(after_second.analysis.schedule_builds, after_first.analysis.schedule_builds);
  EXPECT_EQ(after_second.analysis.schedule_reuses, after_first.analysis.schedule_reuses + 1);
  EXPECT_EQ(after_second.delta_evaluations, 2u);
}

TEST(EvaluateMove, WorksWithTheCacheDisabled) {
  const Fixture f;
  EvaluatorOptions options;
  options.cache_enabled = false;
  CostEvaluator delta(f.app, f.params, AnalysisOptions{}, options);
  CostEvaluator full(f.app, f.params, AnalysisOptions{});
  BusConfig neighbour = f.base;
  neighbour.minislot_count += 8;
  const DeltaMove move = DeltaMove::flexray(neighbour);
  expect_identical(delta.evaluate(SystemConfig::single(f.base), move),
                   full.evaluate(SystemConfig::single(neighbour)), "cache-disabled");
  EXPECT_EQ(delta.work_stats().delta_evaluations, 1u);
}

TEST(EvaluateMove, InvalidNeighbourReportsTheLayoutError) {
  const Fixture f;
  CostEvaluator evaluator(f.app, f.params, AnalysisOptions{});
  ASSERT_TRUE(evaluator.evaluate(SystemConfig::single(f.base)).valid);
  BusConfig neighbour = f.base;
  neighbour.minislot_count = 0;  // DYN messages exist: layout must reject this
  const auto eval =
      evaluator.evaluate(SystemConfig::single(f.base), DeltaMove::flexray(neighbour));
  EXPECT_FALSE(eval.valid);
  EXPECT_FALSE(eval.error.empty());
}

}  // namespace
}  // namespace flexopt
