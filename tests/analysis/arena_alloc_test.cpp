// Arena hot-path contracts, enforced with real counters rather than code
// review:
//
//  1. Arena reuse: across 50 random (spec, move-chain) pairs, the thread
//     slot's reused arena behind CostEvaluator::evaluate_delta_fast must
//     agree bit-for-bit with an independent evaluator's full evaluation on
//     every completion, jitter, cost and convergence flag.  State leaking
//     from one analysis into the next cannot hide: a stale entry would
//     leak a stale bound into the comparison.
//
//  2. Zero allocations: replaying a warmed move chain through
//     evaluate_delta_fast performs no heap allocation at all, measured by
//     the operator new interposer (src/util/alloc_probe.cpp, linked into
//     this binary only).  The contract holds in Release; Debug builds
//     carry the full-analysis cross-check (which allocates by design), so
//     there the test still runs the replay but skips the allocation
//     assertion.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "flexopt/core/config_builder.hpp"
#include "flexopt/core/evaluator.hpp"
#include "flexopt/core/sa.hpp"
#include "flexopt/gen/synthetic.hpp"
#include "flexopt/util/alloc_probe.hpp"
#include "flexopt/util/rng.hpp"

namespace flexopt {
namespace {

constexpr int kPairs = 50;
constexpr int kMovesPerPair = 8;

SyntheticSpec random_spec(Rng& rng) {
  SyntheticSpec spec;
  spec.nodes = static_cast<int>(rng.uniform_int(2, 5));
  spec.tasks_per_graph = static_cast<int>(rng.uniform_int(2, 4));
  spec.tasks_per_node = spec.tasks_per_graph * static_cast<int>(rng.uniform_int(1, 2));
  spec.tt_share = rng.uniform_real(0.2, 0.8);
  spec.deadline_factor = rng.uniform_real(0.6, 1.2);
  spec.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
  return spec;
}

void expect_identical(const CostEvaluator::Evaluation& fast,
                      const CostEvaluator::Evaluation& full, const std::string& label) {
  ASSERT_EQ(fast.valid, full.valid) << label;
  if (!full.valid) return;
  EXPECT_EQ(fast.cost.value, full.cost.value) << label;
  EXPECT_EQ(fast.cost.schedulable, full.cost.schedulable) << label;
  EXPECT_EQ(fast.analysis.task_completion, full.analysis.task_completion) << label;
  EXPECT_EQ(fast.analysis.message_completion, full.analysis.message_completion) << label;
  EXPECT_EQ(fast.analysis.task_jitter, full.analysis.task_jitter) << label;
  EXPECT_EQ(fast.analysis.message_jitter, full.analysis.message_jitter) << label;
  EXPECT_EQ(fast.analysis.converged, full.analysis.converged) << label;
}

TEST(ArenaReuse, MatchesFullEvaluationOnRandomMoveChains) {
  const BusParams params;
  Rng rng(0xa11e9a7e5u);
  int chains_run = 0;
  for (int pair = 0; pair < kPairs; ++pair) {
    const SyntheticSpec spec = random_spec(rng);
    const std::string where =
        "pair " + std::to_string(pair) + " seed " + std::to_string(spec.seed);
    auto app_result = generate_synthetic(spec, params);
    ASSERT_TRUE(app_result.ok()) << where << ": " << app_result.error().message;
    const Application& app = app_result.value();

    const StartConfig start = minimal_start_config(app, params);
    if (!start.bounds.feasible()) continue;  // degenerate cell: nothing to walk
    BusConfig current = start.config;

    CostEvaluator full(app, params, AnalysisOptions{});
    CostEvaluator fast(app, params, AnalysisOptions{});
    CostEvaluator::Evaluation accepted = fast.evaluate(current);
    expect_identical(accepted, full.evaluate(current), where + " start");

    Rng move_rng(spec.seed ^ 0x9e3779b97f4a7c15ull);
    for (int step = 0; step < kMovesPerPair; ++step) {
      BusConfig neighbour = current;
      bool moved = false;
      for (int attempt = 0; attempt < 8 && !moved; ++attempt) {
        moved = random_neighbour_move(neighbour, app, params, move_rng, start.st_senders,
                                      start.bounds.min_minislots, SpecLimits::kMaxMinislots);
      }
      if (!moved) break;
      DeltaMove move = DeltaMove::between(current, std::move(neighbour));
      const CostEvaluator::Evaluation& eval = fast.evaluate_delta_fast(accepted, move);
      expect_identical(eval, full.evaluate(move.config),
                       where + " step " + std::to_string(step));
      // Walk every move (accepted unconditionally): deep chains stress the
      // reused arena under accumulating geometry changes.
      accepted = eval;
      current = std::move(move.config);
    }
    ++chains_run;
  }
  // The spec band is calibrated to be mostly feasible; if this trips, the
  // suite silently stopped testing anything.
  EXPECT_GE(chains_run, kPairs / 2);
}

TEST(ArenaAlloc, WarmReplayPerformsZeroHeapAllocations) {
  const BusParams params;
  SyntheticSpec spec;  // defaults: 5 nodes, the fig9-like regime
  spec.deadline_factor = 0.7;
  spec.seed = 4242;
  auto app_result = generate_synthetic(spec, params);
  ASSERT_TRUE(app_result.ok()) << app_result.error().message;
  const Application& app = app_result.value();

  const StartConfig start = minimal_start_config(app, params);
  ASSERT_TRUE(start.bounds.feasible());

  // Whole-config memoization off so every call exercises the analysis
  // path; the component caches (schedule geometries) stay on and are what
  // the recording pass warms.
  EvaluatorOptions eopts;
  eopts.cache_enabled = false;
  CostEvaluator evaluator(app, params, AnalysisOptions{}, eopts);

  long measured = 0;
  std::uint64_t allocations = 0;
  const auto run_chain = [&](bool count) {
    BusConfig current = start.config;
    CostEvaluator::Evaluation accepted = evaluator.evaluate(current);
    Rng move_rng(0x5eedu);
    for (int step = 0; step < 64; ++step) {
      BusConfig neighbour = current;
      bool moved = false;
      for (int attempt = 0; attempt < 8 && !moved; ++attempt) {
        moved = random_neighbour_move(neighbour, app, params, move_rng, start.st_senders,
                                      start.bounds.min_minislots, SpecLimits::kMaxMinislots);
      }
      if (!moved) continue;
      DeltaMove move = DeltaMove::between(current, std::move(neighbour));

      const std::uint64_t a0 = alloc_probe::thread_allocations();
      const CostEvaluator::Evaluation& eval = evaluator.evaluate_delta_fast(accepted, move);
      const std::uint64_t evaluation_allocs = alloc_probe::thread_allocations() - a0;
      if (count && eval.valid) {
        ++measured;
        allocations += evaluation_allocs;  // error paths allocate strings
      }
      accepted = eval;
      current = std::move(move.config);
    }
  };

  run_chain(/*count=*/false);  // recording pass: warm caches, arena, scratch
  run_chain(/*count=*/true);   // replay of the identical RNG stream
  ASSERT_GT(measured, 0);

  if (!alloc_probe::installed()) {
    GTEST_SKIP() << "alloc probe displaced (sanitizer build)";
  }
#ifdef NDEBUG
  EXPECT_EQ(allocations, 0u) << "steady-state hot path allocated on " << measured
                             << " measured moves";
#else
  // Debug carries the full-analysis bit-identity cross-check, which
  // allocates by design; the replay above still verified it runs clean.
  SUCCEED() << "allocation contract gated to Release";
#endif
}

}  // namespace
}  // namespace flexopt
