#pragma once

/// \file evaluator.hpp
/// Cost evaluation service shared by all optimisers: wraps BusLayout
/// construction + holistic analysis + Eq. 5, memoizes results per
/// configuration, and counts full analyses so the Fig. 9 runtime comparison
/// can report work done.
///
/// The evaluator is a thread-safe service: it owns the Application by
/// shared_ptr (evaluations stay valid after the caller's copy goes away)
/// and every `evaluate` form may be called concurrently from any number of
/// threads.  It has three call forms:
///
///   evaluate(config)          full evaluation of a SystemConfig (cached)
///   evaluate(base, move)      one neighbour: `move` substituted into cluster
///                             `move.cluster` of `base`; returns a view into
///                             the calling thread's slot
///   evaluate(base, moves)     a batch of neighbours, fanned across the
///                             worker pool; results in input order
///
/// Every form runs the same holistic fixed point
/// (analyze_system_incremental_into) against the evaluator's per-cluster
/// component caches, so a configuration's result does not depend on which
/// form or path analysed it first.  Which path runs is the evaluator's
/// choice: a single-cluster FlexRay move is analysed in the calling
/// thread's reused arena (allocation-free at steady state); exact-mode
/// moves take the cached full path, whose component cache replays explored
/// DYN frontiers; multi-cluster and TSN configurations take the system path
/// (cross-cluster fixed point).  An analysis is counted as a full or a
/// delta evaluation by its call form — configuration or move — never by
/// the path or the thread count.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "flexopt/analysis/incremental.hpp"
#include "flexopt/analysis/system_analysis.hpp"
#include "flexopt/core/delta_move.hpp"
#include "flexopt/flexray/bus_config.hpp"
#include "flexopt/flexray/params.hpp"
#include "flexopt/flexray/system_config.hpp"
#include "flexopt/model/system_model.hpp"
#include "flexopt/util/stat.hpp"

namespace flexopt {

/// Cost assigned to configurations that violate the protocol or for which
/// no static schedule exists; large enough to lose against any analysable
/// configuration.
inline constexpr double kInvalidConfigCost = 1e15;

/// Stable hash of the decision variables; keys the evaluator's memoization
/// cache (collisions are resolved by full BusConfig equality).
[[nodiscard]] std::size_t hash_config(const BusConfig& config);

/// Stable hash over the per-cluster configs; keys the evaluator's
/// SystemConfig memoization cache.
[[nodiscard]] std::size_t hash_system_config(const SystemConfig& config);

/// Behaviour knobs of the evaluation service (cache + worker pool).
struct EvaluatorOptions {
  /// Memoize configuration -> Evaluation.  Optimisers that revisit
  /// configurations (SA, nested OBC loops) pay one analysis per distinct
  /// candidate instead of one per visit.
  bool cache_enabled = true;
  /// Insertion stops once the cache holds this many entries (the hot
  /// configurations of a run are cached early; this bounds memory on
  /// multi-hour SA runs).
  std::size_t max_cache_entries = 1u << 16;
  /// Worker threads of the batch form's pool; 0 = hardware concurrency.
  int threads = 0;
};

/// Cache effectiveness counters (monotonic over the evaluator's lifetime).
struct EvaluatorCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::size_t entries = 0;
};

/// Work accounting across full and delta evaluations (monotonic over the
/// evaluator's lifetime).  `analysis.components()` is the recomputed-work
/// metric.
struct EvaluatorWorkStats {
  AnalysisWorkCounters analysis;
  std::uint64_t full_evaluations = 0;   ///< evaluate(config) analyses (cache misses)
  std::uint64_t delta_evaluations = 0;  ///< evaluate(base, move) analyses, single or batch
  /// Thread-slot arenas (re)allocated / rebound without allocation by the
  /// single-move form (the batch form's arenas are not counted: which
  /// thread ran a candidate is scheduling).
  std::uint64_t arena_binds = 0;
  std::uint64_t arena_reuses = 0;
  /// Response-time recurrences actually recomputed per delta evaluation
  /// (fps_analyses + dyn_analyses + schedule_builds of that evaluation) —
  /// the work-per-move distribution the profile report surfaces.
  Histogram components_per_delta;
  std::uint64_t components_reused() const {
    return analysis.schedule_reuses + analysis.fps_skipped + analysis.dyn_skipped;
  }
  EvaluatorWorkStats& operator+=(const EvaluatorWorkStats& other) {
    analysis += other.analysis;
    full_evaluations += other.full_evaluations;
    delta_evaluations += other.delta_evaluations;
    arena_binds += other.arena_binds;
    arena_reuses += other.arena_reuses;
    components_per_delta += other.components_per_delta;
    return *this;
  }
  /// Field-wise delta against an earlier snapshot — the per-solve profile
  /// SolveReport carries (the counters are monotonic, so this is exact).
  [[nodiscard]] EvaluatorWorkStats since(const EvaluatorWorkStats& before) const {
    EvaluatorWorkStats d;
    d.analysis = analysis.since(before.analysis);
    d.full_evaluations = full_evaluations - before.full_evaluations;
    d.delta_evaluations = delta_evaluations - before.delta_evaluations;
    d.arena_binds = arena_binds - before.arena_binds;
    d.arena_reuses = arena_reuses - before.arena_reuses;
    d.components_per_delta = components_per_delta.since(before.components_per_delta);
    return d;
  }
};

class CostEvaluator {
 public:
  /// Shares ownership of `app`: the evaluator (and every Evaluation it
  /// hands out) remains valid after the caller drops its reference.  The
  /// application is wrapped as its own single-cluster SystemModel.
  CostEvaluator(std::shared_ptr<const Application> app, const BusParams& params,
                AnalysisOptions options, EvaluatorOptions evaluator_options = {});
  /// Convenience overload: copies `app` into shared ownership.
  CostEvaluator(const Application& app, const BusParams& params, AnalysisOptions options,
                EvaluatorOptions evaluator_options = {});
  /// Multi-cluster evaluator over a projected system model (one bus per
  /// cluster; all clusters share `params`).
  CostEvaluator(SystemModel model, const BusParams& params, AnalysisOptions options,
                EvaluatorOptions evaluator_options = {});
  /// Sibling evaluator: shares `parent`'s system model, bus parameters and
  /// analysis options, with fresh caches/counters and its own
  /// EvaluatorOptions.  The portfolio optimizer gives every racing member
  /// one of these so member trajectories stay schedule-independent.
  CostEvaluator(const CostEvaluator& parent, EvaluatorOptions evaluator_options);
  ~CostEvaluator();
  CostEvaluator(const CostEvaluator&) = delete;
  CostEvaluator& operator=(const CostEvaluator&) = delete;

  struct Evaluation {
    bool valid = false;
    Cost cost{kInvalidConfigCost, false, 0};
    /// The holistic result of a single-bus evaluation (single-cluster
    /// FlexRay systems), or — for a move — of the move's cluster.
    AnalysisResult analysis;
    /// Full evaluations of multi-cluster (or TSN) systems only: one
    /// holistic result per cluster.  Move results leave it empty and carry
    /// the moved cluster's result in `analysis` instead.
    std::vector<AnalysisResult> cluster_analysis;
    /// Multi-cluster evaluations only: cross-cluster fixed point converged.
    bool multicluster_converged = true;
    std::string error;
  };

  /// Full scheduling + schedulability analysis of one per-cluster
  /// configuration product (served from the cache when the configuration
  /// was seen before).  A single-cluster FlexRay system fills `analysis`;
  /// every other system runs the cross-cluster fixed point and fills
  /// `cluster_analysis`.  Counted as a full evaluation.
  Evaluation evaluate(const SystemConfig& config);

  /// One neighbour: `move` replaces cluster `move.cluster` of `base` and
  /// the substituted system is evaluated.  For a single-cluster system the
  /// move replaces the whole configuration and `base` is not read.  The
  /// result is bit-identical to evaluate(substituted) — asserted in Debug
  /// builds — and is entered into the same cache.  The returned reference
  /// points into the calling thread's slot and stays valid until this
  /// thread's next call on this evaluator; copy it to keep it.  A
  /// single-cluster FlexRay move (holistic mode, memo cache disabled)
  /// performs zero heap allocations at steady state.  Counted as a delta
  /// evaluation.
  const Evaluation& evaluate(const SystemConfig& base, const DeltaMove& move);

  /// A batch of neighbours of one `base`, fanned across the worker pool
  /// (serial when there is one worker; the pool's threads are spawned on
  /// the first batch and reused, so small per-batch sweeps stay cheap).  Results are in input order and
  /// equal to calling evaluate(base, move) per move, bit for bit.  Each
  /// candidate is analysed in the claiming thread's batch arena, whose
  /// binds are not reported, so every reported counter is independent of
  /// the pool size.
  std::vector<Evaluation> evaluate(const SystemConfig& base,
                                   std::span<const DeltaMove> moves);

  // ---- forwarders kept for the benchmark harness (perfbench/) -------------
  // Single-cluster evaluators only; nothing else in the tree calls them.
  Evaluation evaluate(const BusConfig& config) {
    return evaluate(SystemConfig::single(config));
  }
  Evaluation evaluate_system(const SystemConfig& config) { return evaluate(config); }
  const Evaluation& evaluate_delta_fast(const Evaluation& /*base*/, const DeltaMove& move) {
    return evaluate(SystemConfig{}, move);
  }

  /// The system searched: global() is the whole application (the single
  /// cluster's for single-cluster systems), cluster_app(c) each cluster's
  /// projection.
  [[nodiscard]] const SystemModel& system_model() const { return model_; }
  [[nodiscard]] std::size_t cluster_count() const { return model_.cluster_count(); }

  [[nodiscard]] const BusParams& params() const { return params_; }
  [[nodiscard]] const AnalysisOptions& analysis_options() const { return options_; }
  [[nodiscard]] const EvaluatorOptions& evaluator_options() const {
    return evaluator_options_;
  }

  /// Number of full analyses performed so far (cache hits excluded) —
  /// the work metric every optimisation budget is charged against.
  [[nodiscard]] long evaluations() const {
    return evaluations_.load(std::memory_order_relaxed);
  }

  /// Worker threads the batch form will use (EvaluatorOptions::threads
  /// resolved against hardware concurrency); >= 1.
  [[nodiscard]] int worker_threads() const;

  [[nodiscard]] EvaluatorCacheStats cache_stats() const;
  [[nodiscard]] EvaluatorWorkStats work_stats() const;
  void clear_cache();

 private:
  /// Per-thread evaluation state: the analysis arena, a reusable BusLayout,
  /// the Evaluation the single-move form returns by reference, a scratch
  /// SystemConfig for substituting moves, and this thread's share of the
  /// work statistics.  One slot per (evaluator, thread) pair, owned by the
  /// evaluator, found through a thread-local cache keyed by the
  /// evaluator's id.
  struct ThreadSlot;
  ThreadSlot& slot();

  /// Evaluates `move` against `base` into `out` (see the single-move
  /// form).  `batch` selects the slot's batch arena for single-cluster
  /// FlexRay moves.
  void evaluate_move(const SystemConfig& base, const DeltaMove& move, ThreadSlot& s,
                     Evaluation& out, bool batch);
  /// The allocation-free single-cluster move: memo-cache check, in-place
  /// layout assign, analysis in one of the slot's arenas into `out`.
  void analyze_in_arena(const BusConfig& config, ThreadSlot& s, AnalysisArena& arena,
                        Evaluation& out);
  /// Cached single-cluster FlexRay evaluation (one-shot arena on a miss).
  std::shared_ptr<const Evaluation> bus_entry(const BusConfig& config, bool delta);
  /// Cached system evaluation (cross-cluster fixed point on a miss).
  std::shared_ptr<const Evaluation> system_entry(const SystemConfig& config, bool delta);
  /// The uncached paths behind bus_entry / system_entry.
  Evaluation analyze(const BusConfig& config, bool delta);
  Evaluation analyze_system_config(const SystemConfig& config, bool delta);
  /// Charges one analysis to the calling thread's slot `s`.
  void count_evaluation(ThreadSlot& s, const AnalysisWorkCounters& counters, bool delta);
  /// Cache lookup only (no analysis on miss); nullptr when absent.
  std::shared_ptr<const Evaluation> cached(const BusConfig& config);
  void insert_cache(const BusConfig& config, std::shared_ptr<const Evaluation> entry);
  std::shared_ptr<const Evaluation> cached_system(const SystemConfig& config);
  void insert_system_cache(const SystemConfig& config, std::shared_ptr<const Evaluation> entry);

  struct ConfigHash {
    std::size_t operator()(const BusConfig& config) const { return hash_config(config); }
  };
  struct SystemConfigHash {
    std::size_t operator()(const SystemConfig& config) const {
      return hash_system_config(config);
    }
  };

  /// One batch in flight: workers claim indices via `next`; `active`
  /// counts workers currently inside the batch so the caller can destroy
  /// it only after everyone has checked out.
  struct Batch {
    const SystemConfig* base = nullptr;
    std::span<const DeltaMove> moves;
    std::vector<Evaluation>* out = nullptr;
    std::atomic<std::size_t> next{0};
    int active = 0;  // guarded by pool_mutex_
  };

  void ensure_pool();
  void pool_worker();
  void drain(Batch& batch);

  SystemModel model_;
  std::shared_ptr<const Application> app_;  ///< the global application
  BusParams params_;
  AnalysisOptions options_;
  EvaluatorOptions evaluator_options_;
  /// Single-cluster FlexRay system: configurations are cached and analysed
  /// as one BusConfig (the bus path); everything else takes the system path.
  bool bus_path_ = false;
  std::atomic<long> evaluations_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cache_misses_{0};
  mutable std::mutex cache_mutex_;
  /// Single-cluster FlexRay configurations (the bus path).
  std::unordered_map<BusConfig, std::shared_ptr<const Evaluation>, ConfigHash> cache_;
  /// Full per-cluster configuration products (the system path).
  std::unordered_map<SystemConfig, std::shared_ptr<const Evaluation>, SystemConfigHash>
      system_cache_;

  /// One component cache per cluster, built once at construction (the
  /// evaluator is immovable, so the pointer table's addresses hold).
  std::vector<std::unique_ptr<AnalysisComponentCache>> components_;
  std::vector<AnalysisComponentCache*> cluster_caches_;
  /// Monotonic id keying the thread-local slot cache: ids are never reused,
  /// so a stale cache entry for a destroyed evaluator can never match.
  const std::uint64_t id_;
  mutable std::mutex slots_mutex_;
  /// All slots ever handed out (one per thread that evaluated through this
  /// evaluator); work_stats() sums them.  Guarded by slots_mutex_.
  std::vector<std::unique_ptr<ThreadSlot>> slots_;

  std::mutex pool_mutex_;
  std::condition_variable pool_wake_;  ///< workers: a new batch was posted
  std::condition_variable pool_done_;  ///< caller: all workers left the batch
  std::vector<std::thread> pool_;      // spawned lazily, guarded by pool_mutex_
  Batch* batch_ = nullptr;             // guarded by pool_mutex_
  std::uint64_t batch_generation_ = 0;  // guarded by pool_mutex_
  bool shutting_down_ = false;          // guarded by pool_mutex_
};

/// Outcome shared by all optimisation algorithms.
struct OptimizationOutcome {
  /// Single-cluster FlexRay solves: the winning bus configuration.
  /// Multi-cluster solves: cluster 0's FlexRay slice of `system` (kept
  /// filled so single-bus consumers never see an empty config; left
  /// default when cluster 0 is a TSN switch — read `system` instead).
  BusConfig config;
  /// The winning per-cluster configuration product; exactly one entry
  /// (== config) for single-cluster solves.  Filled by Optimizer::solve.
  SystemConfig system;
  Cost cost{kInvalidConfigCost, false, 0};
  bool feasible = false;
  /// Full analyses performed by this run.
  long evaluations = 0;
  double wall_seconds = 0.0;
  std::string algorithm;
};

}  // namespace flexopt
