// CostEvaluator: the shared, thread-safe analysis service all optimisers
// consume — memoization cache, atomic work counter, shared Application
// ownership, and the worker pool behind the batch form.

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "flexopt/core/evaluator.hpp"
#include "helpers.hpp"

namespace flexopt {
namespace {

using testing::TinySystem;

EvaluatorOptions uncached_serial() {
  EvaluatorOptions o;
  o.cache_enabled = false;
  o.threads = 1;
  return o;
}

TEST(CostEvaluator, ValidConfigYieldsCostAndCountsEvaluation) {
  TinySystem sys;
  CostEvaluator evaluator(sys.app, sys.params, AnalysisOptions{});
  EXPECT_EQ(evaluator.evaluations(), 0);
  const auto eval = evaluator.evaluate(SystemConfig::single(sys.config));
  ASSERT_TRUE(eval.valid);
  EXPECT_LT(eval.cost.value, kInvalidConfigCost);
  EXPECT_EQ(evaluator.evaluations(), 1);
}

TEST(CostEvaluator, InvalidConfigDoesNotCountAsAnalysis) {
  TinySystem sys;
  CostEvaluator evaluator(sys.app, sys.params, AnalysisOptions{});
  BusConfig broken = sys.config;
  broken.minislot_count = -1;
  const auto eval = evaluator.evaluate(SystemConfig::single(broken));
  EXPECT_FALSE(eval.valid);
  EXPECT_FALSE(eval.error.empty());
  EXPECT_DOUBLE_EQ(eval.cost.value, kInvalidConfigCost);
  EXPECT_EQ(evaluator.evaluations(), 0);
}

TEST(CostEvaluator, RevisitIsServedFromCache) {
  TinySystem sys;
  CostEvaluator evaluator(sys.app, sys.params, AnalysisOptions{});
  const auto a = evaluator.evaluate(SystemConfig::single(sys.config));
  const auto b = evaluator.evaluate(SystemConfig::single(sys.config));
  ASSERT_TRUE(a.valid);
  ASSERT_TRUE(b.valid);
  EXPECT_DOUBLE_EQ(a.cost.value, b.cost.value);
  // The second visit is a cache hit: no new full analysis.
  EXPECT_EQ(evaluator.evaluations(), 1);
  const EvaluatorCacheStats stats = evaluator.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(CostEvaluator, CacheDisabledAnalysesEveryVisit) {
  TinySystem sys;
  CostEvaluator evaluator(sys.app, sys.params, AnalysisOptions{}, uncached_serial());
  const auto a = evaluator.evaluate(SystemConfig::single(sys.config));
  const auto b = evaluator.evaluate(SystemConfig::single(sys.config));
  ASSERT_TRUE(a.valid);
  ASSERT_TRUE(b.valid);
  EXPECT_DOUBLE_EQ(a.cost.value, b.cost.value);
  EXPECT_EQ(evaluator.evaluations(), 2);
}

TEST(CostEvaluator, CachedEvaluationIdenticalToFreshAnalysis) {
  TinySystem sys;
  CostEvaluator cached(sys.app, sys.params, AnalysisOptions{});
  (void)cached.evaluate(SystemConfig::single(sys.config));           // populate
  const auto hit = cached.evaluate(SystemConfig::single(sys.config));  // served from cache

  CostEvaluator fresh(sys.app, sys.params, AnalysisOptions{}, uncached_serial());
  const auto reference = fresh.evaluate(SystemConfig::single(sys.config));

  ASSERT_TRUE(hit.valid);
  ASSERT_TRUE(reference.valid);
  EXPECT_DOUBLE_EQ(hit.cost.value, reference.cost.value);
  EXPECT_EQ(hit.cost.schedulable, reference.cost.schedulable);
  EXPECT_EQ(hit.analysis.task_completion, reference.analysis.task_completion);
  EXPECT_EQ(hit.analysis.message_completion, reference.analysis.message_completion);
}

TEST(CostEvaluator, AnalysisResultExposed) {
  TinySystem sys;
  CostEvaluator evaluator(sys.app, sys.params, AnalysisOptions{});
  const auto eval = evaluator.evaluate(SystemConfig::single(sys.config));
  ASSERT_TRUE(eval.valid);
  EXPECT_EQ(eval.analysis.task_completion.size(), sys.app.task_count());
  EXPECT_EQ(eval.analysis.message_completion.size(), sys.app.message_count());
  EXPECT_EQ(eval.analysis.cost.value, eval.cost.value);
}

// Regression for the dangling-pointer hazard of the raw `const Application*`
// evaluator: evaluations must stay valid after the caller's Application (and
// the caller's shared_ptr) go out of scope.
TEST(CostEvaluator, OutlivesSourceApplication) {
  std::unique_ptr<CostEvaluator> evaluator;
  BusConfig config;
  {
    TinySystem sys;
    config = sys.config;
    evaluator = std::make_unique<CostEvaluator>(sys.app, sys.params, AnalysisOptions{});
  }  // sys.app destroyed here
  const auto eval = evaluator->evaluate(SystemConfig::single(config));
  ASSERT_TRUE(eval.valid);
  EXPECT_LT(eval.cost.value, kInvalidConfigCost);
}

TEST(CostEvaluator, SharedOwnershipConstructorSharesTheApplication) {
  TinySystem sys;
  auto shared = std::make_shared<const Application>(sys.app);
  CostEvaluator evaluator(shared, sys.params, AnalysisOptions{});
  EXPECT_EQ(evaluator.system_model().global().get(), shared.get());
  const auto eval = evaluator.evaluate(SystemConfig::single(sys.config));
  EXPECT_TRUE(eval.valid);
}

TEST(CostEvaluator, BatchMatchesSerialUncachedWithFewerAnalyses) {
  TinySystem sys;
  const SystemConfig base = SystemConfig::single(sys.config);

  // A move sweep with revisits, as a nested exploration produces.
  std::vector<DeltaMove> moves;
  for (int pass = 0; pass < 2; ++pass) {
    for (int minislots = 4; minislots <= 16; ++minislots) {
      moves.push_back(DeltaMove::flexray(sys.config));
      moves.back().config.minislot_count = minislots;
    }
  }

  CostEvaluator serial(sys.app, sys.params, AnalysisOptions{}, uncached_serial());
  std::vector<CostEvaluator::Evaluation> reference;
  reference.reserve(moves.size());
  for (const DeltaMove& move : moves) reference.push_back(serial.evaluate(base, move));

  EvaluatorOptions pool;
  pool.threads = 4;
  CostEvaluator parallel(sys.app, sys.params, AnalysisOptions{}, pool);
  const auto results = parallel.evaluate(base, moves);

  ASSERT_EQ(results.size(), reference.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].valid, reference[i].valid) << "move " << i;
    EXPECT_EQ(results[i].cost.value, reference[i].cost.value) << "move " << i;
    EXPECT_EQ(results[i].analysis.task_completion, reference[i].analysis.task_completion);
    EXPECT_EQ(results[i].analysis.message_completion,
              reference[i].analysis.message_completion);
  }
  // The duplicated pass is deduplicated by the cache: strictly fewer full
  // analyses than the uncached serial sweep.
  EXPECT_LT(parallel.evaluations(), serial.evaluations());
  // Every analysis is charged as a delta (the call form), whatever thread
  // ran it; the batch form's arenas are not reported.
  const EvaluatorWorkStats work = parallel.work_stats();
  EXPECT_EQ(work.full_evaluations, 0u);
  EXPECT_EQ(work.delta_evaluations, static_cast<std::uint64_t>(parallel.evaluations()));
  EXPECT_EQ(work.arena_binds + work.arena_reuses, 0u);
}

TEST(CostEvaluator, BatchCountersDoNotDependOnThePoolSize) {
  TinySystem sys;
  const SystemConfig base = SystemConfig::single(sys.config);
  std::vector<DeltaMove> moves;
  for (int minislots = 4; minislots <= 24; ++minislots) {
    moves.push_back(DeltaMove::flexray(sys.config));
    moves.back().config.minislot_count = minislots;
  }
  auto run = [&](int threads) {
    EvaluatorOptions options;
    options.threads = threads;
    CostEvaluator evaluator(sys.app, sys.params, AnalysisOptions{}, options);
    (void)evaluator.evaluate(base, moves);
    return evaluator.work_stats();
  };
  const EvaluatorWorkStats one = run(1);
  const EvaluatorWorkStats four = run(4);
  EXPECT_EQ(one.full_evaluations, four.full_evaluations);
  EXPECT_EQ(one.delta_evaluations, four.delta_evaluations);
  EXPECT_EQ(one.arena_binds, four.arena_binds);
  EXPECT_EQ(one.arena_reuses, four.arena_reuses);
  EXPECT_EQ(one.analysis.components(), four.analysis.components());
  EXPECT_EQ(one.components_per_delta.count(), four.components_per_delta.count());
  EXPECT_EQ(one.components_per_delta.sum(), four.components_per_delta.sum());
}

TEST(CostEvaluator, MoveReplacesTheSingleClusterAndCountsAsDelta) {
  TinySystem sys;
  CostEvaluator evaluator(sys.app, sys.params, AnalysisOptions{}, uncached_serial());
  BusConfig next = sys.config;
  next.minislot_count += 2;
  const DeltaMove move = DeltaMove::flexray(next);
  // The move replaces the single cluster's whole configuration, so the
  // base's contents are not read: any base gives the same view.
  const double move_cost = evaluator.evaluate(SystemConfig::single(sys.config), move).cost.value;
  EXPECT_EQ(evaluator.evaluate(SystemConfig{}, move).cost.value, move_cost);
  const auto full = evaluator.evaluate(SystemConfig::single(next));
  ASSERT_TRUE(full.valid);
  EXPECT_EQ(full.cost.value, move_cost);
  const EvaluatorWorkStats work = evaluator.work_stats();
  EXPECT_EQ(work.delta_evaluations, 2u);
  EXPECT_EQ(work.full_evaluations, 1u);

  // A move stamped with a cluster the system does not have is rejected.
  const DeltaMove stray = DeltaMove::flexray(next, 1);
  EXPECT_FALSE(evaluator.evaluate(SystemConfig::single(sys.config), stray).valid);
}

TEST(CostEvaluator, ConcurrentEvaluateIsConsistent) {
  TinySystem sys;
  CostEvaluator evaluator(sys.app, sys.params, AnalysisOptions{});
  const auto reference = evaluator.evaluate(SystemConfig::single(sys.config));
  ASSERT_TRUE(reference.valid);

  constexpr int kThreads = 4;
  constexpr int kRounds = 16;
  std::vector<std::thread> threads;
  std::vector<int> mismatches(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        BusConfig config = sys.config;
        config.minislot_count = 4 + (r % 8);
        const auto eval = evaluator.evaluate(SystemConfig::single(config));
        const auto again = evaluator.evaluate(SystemConfig::single(config));
        if (!eval.valid || !again.valid || eval.cost.value != again.cost.value) {
          ++mismatches[t];
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

TEST(CostEvaluator, CacheCapacityBoundsInsertions) {
  TinySystem sys;
  EvaluatorOptions options;
  options.max_cache_entries = 1;
  CostEvaluator evaluator(sys.app, sys.params, AnalysisOptions{}, options);
  BusConfig other = sys.config;
  other.minislot_count = sys.config.minislot_count + 1;
  (void)evaluator.evaluate(SystemConfig::single(sys.config));
  (void)evaluator.evaluate(SystemConfig::single(other));  // not inserted: cache is full
  EXPECT_EQ(evaluator.cache_stats().entries, 1u);
  // Still correct, just uncached.
  const auto eval = evaluator.evaluate(SystemConfig::single(other));
  EXPECT_TRUE(eval.valid);
  EXPECT_EQ(evaluator.evaluations(), 3);
}

TEST(CostEvaluator, ClearCacheForcesReanalysis) {
  TinySystem sys;
  CostEvaluator evaluator(sys.app, sys.params, AnalysisOptions{});
  (void)evaluator.evaluate(SystemConfig::single(sys.config));
  evaluator.clear_cache();
  EXPECT_EQ(evaluator.cache_stats().entries, 0u);
  (void)evaluator.evaluate(SystemConfig::single(sys.config));
  EXPECT_EQ(evaluator.evaluations(), 2);
}

TEST(CostEvaluator, HashDistinguishesDecisionVariables) {
  TinySystem sys;
  BusConfig a = sys.config;
  BusConfig b = a;
  EXPECT_EQ(hash_config(a), hash_config(b));
  b.minislot_count += 1;
  EXPECT_NE(hash_config(a), hash_config(b));
  b = a;
  b.frame_id.back() += 1;
  EXPECT_NE(hash_config(a), hash_config(b));
  b = a;
  b.static_slot_len += 1;
  EXPECT_NE(hash_config(a), hash_config(b));
}

}  // namespace
}  // namespace flexopt
