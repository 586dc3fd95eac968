#include "flexopt/core/evaluator.hpp"

#include "flexopt/analysis/exact/exact_analysis.hpp"
#include "flexopt/analysis/multicluster.hpp"
#include "flexopt/flexray/bus_layout.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>

namespace flexopt {

/// Per-thread evaluation state (see the declaration in evaluator.hpp).
/// `mutex` only guards `stats`: the owner thread takes it briefly when
/// flushing counters (uncontended), work_stats() takes it when summing.
/// Everything else is touched by the owning thread exclusively.
struct CostEvaluator::ThreadSlot {
  std::mutex mutex;
  EvaluatorWorkStats stats;  // guarded by mutex
  AnalysisArena arena;       ///< the single-move form's fixed-point state
  /// The batch form's fixed-point state.  Its binds are not reported: which
  /// pool thread analyses a candidate is scheduling, and reports must not
  /// depend on it.
  AnalysisArena batch_arena;
  BusLayout layout;          ///< rebuilt in place per candidate
  Evaluation eval;           ///< the single-move form's return storage
  SystemConfig next;         ///< base with a move substituted (capacity reused)
};

namespace {

/// Thread-local (evaluator id -> slot) cache.  The raw pointer is only ever
/// dereferenced when the id matches a live evaluator — ids are monotonic
/// and never reused, so an entry left behind by a destroyed evaluator can
/// never be hit.  Bounded: with more than kSlotCacheMax live evaluators on
/// one thread the oldest entry is evicted (that evaluator then re-creates
/// a slot on its next use here; only its arena warm-up is lost).
struct SlotCacheEntry {
  std::uint64_t evaluator = 0;
  void* slot = nullptr;
};
constexpr std::size_t kSlotCacheMax = 16;
thread_local std::vector<SlotCacheEntry> t_slot_cache;

std::atomic<std::uint64_t> g_next_evaluator_id{1};

}  // namespace

CostEvaluator::ThreadSlot& CostEvaluator::slot() {
  for (const SlotCacheEntry& entry : t_slot_cache) {
    if (entry.evaluator == id_) return *static_cast<ThreadSlot*>(entry.slot);
  }
  auto owned = std::make_unique<ThreadSlot>();
  ThreadSlot* raw = owned.get();
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    slots_.push_back(std::move(owned));
  }
  if (t_slot_cache.size() >= kSlotCacheMax) t_slot_cache.erase(t_slot_cache.begin());
  t_slot_cache.push_back({id_, raw});
  return *raw;
}

std::size_t hash_config(const BusConfig& config) {
  // FNV-1a over the six decision variables.
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(config.static_slot_count));
  mix(static_cast<std::uint64_t>(config.static_slot_len));
  mix(static_cast<std::uint64_t>(config.minislot_count));
  for (const NodeId owner : config.static_slot_owner) mix(index_of(owner));
  for (const int fid : config.frame_id) mix(static_cast<std::uint64_t>(fid));
  return static_cast<std::size_t>(h);
}

std::size_t hash_system_config(const SystemConfig& config) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(config.clusters.size()));
  for (const ClusterConfig& cluster : config.clusters) {
    mix(static_cast<std::uint64_t>(cluster.kind));
    if (cluster.kind == ClusterBackendKind::Tsn) {
      // Only the active payload is hashed — ClusterConfig's contract is
      // that the inactive payload stays default-constructed.
      const TsnConfig& tsn = cluster.tsn;
      mix(static_cast<std::uint64_t>(tsn.cycle));
      mix(static_cast<std::uint64_t>(tsn.link_rate_mbps));
      for (const TsnGateWindow& gate : tsn.gates) {
        mix(static_cast<std::uint64_t>(gate.offset));
        mix(static_cast<std::uint64_t>(gate.length));
      }
      for (const int prio : tsn.et_priority) mix(static_cast<std::uint64_t>(prio));
    } else {
      mix(static_cast<std::uint64_t>(hash_config(cluster.flexray)));
    }
  }
  return static_cast<std::size_t>(h);
}

CostEvaluator::CostEvaluator(SystemModel model, const BusParams& params,
                             AnalysisOptions options, EvaluatorOptions evaluator_options)
    : model_(std::move(model)),
      app_(model_.global()),
      params_(params),
      options_(options),
      evaluator_options_(evaluator_options),
      bus_path_(model_.single_cluster() && model_.cluster_app(0)->cluster_backend(ClusterId{0}) ==
                                               ClusterBackendKind::FlexRay),
      id_(g_next_evaluator_id.fetch_add(1, std::memory_order_relaxed)) {
  // One component cache per cluster, so geometry components never alias
  // across buses.  The pointer table is built once — the evaluator is
  // immovable, so the addresses hold — keeping the per-candidate hot path
  // allocation-free.
  for (std::size_t c = 0; c < model_.cluster_count(); ++c) {
    components_.push_back(std::make_unique<AnalysisComponentCache>());
    cluster_caches_.push_back(components_.back().get());
  }
}

namespace {

/// Application-based construction must not silently flatten a clustered
/// application onto one bus: project it properly, or (for the degenerate
/// single-cluster case, and unfinalized apps whose topology is not yet
/// known) wrap it as its own projection.  Projection failures are
/// construction misuse, reported like other evaluator preconditions.
SystemModel model_for_application(std::shared_ptr<const Application> app) {
  if (app != nullptr && app->finalized() && app->cluster_count() > 1) {
    auto model = SystemModel::build(std::move(app));
    if (!model.ok()) {
      throw std::invalid_argument("CostEvaluator: " + model.error().message);
    }
    return std::move(model).value();
  }
  return SystemModel::single(std::move(app));
}

#ifndef NDEBUG
/// Debug cross-check of a cache-served single-bus analysis against a cold
/// analyze_system (one-shot component cache and arena), bit for bit.
void assert_matches_cold(const BusLayout& layout, const AnalysisOptions& options,
                         const CostEvaluator::Evaluation& out) {
  auto cold = analyze_system(layout, options);
  assert(cold.ok() == out.valid);
  if (!cold.ok()) return;
  const AnalysisResult& ref = cold.value();
  assert(out.analysis.converged == ref.converged);
  assert(out.analysis.task_completion == ref.task_completion);
  assert(out.analysis.message_completion == ref.message_completion);
  assert(out.analysis.task_jitter == ref.task_jitter);
  assert(out.analysis.message_jitter == ref.message_jitter);
  assert(out.cost.value == ref.cost.value);
  assert(out.cost.schedulable == ref.cost.schedulable);
  assert(out.cost.unbounded_activities == ref.cost.unbounded_activities);
  if (options.mode == AnalysisMode::Exact) {
    // Bounds AND engine counters, so a stale or mis-keyed exact-space
    // entry can never hide behind equal costs.
    assert(out.analysis.exact != nullptr && ref.exact != nullptr);
    assert(out.analysis.exact->fallback == ref.exact->fallback);
    assert(out.analysis.exact->explored_states == ref.exact->explored_states);
    assert(out.analysis.exact->merged_states == ref.exact->merged_states);
    assert(out.analysis.exact->transitions == ref.exact->transitions);
    assert(out.analysis.exact->refined_messages == ref.exact->refined_messages);
  }
}
#endif

}  // namespace

CostEvaluator::CostEvaluator(std::shared_ptr<const Application> app, const BusParams& params,
                             AnalysisOptions options, EvaluatorOptions evaluator_options)
    : CostEvaluator(model_for_application(std::move(app)), params, options,
                    evaluator_options) {}

CostEvaluator::CostEvaluator(const Application& app, const BusParams& params,
                             AnalysisOptions options, EvaluatorOptions evaluator_options)
    : CostEvaluator(std::make_shared<const Application>(app), params, options,
                    evaluator_options) {}

CostEvaluator::CostEvaluator(const CostEvaluator& parent, EvaluatorOptions evaluator_options)
    : CostEvaluator(parent.model_, parent.params_, parent.options_, evaluator_options) {}

void CostEvaluator::count_evaluation(ThreadSlot& s, const AnalysisWorkCounters& counters,
                                     bool delta) {
  std::lock_guard<std::mutex> lock(s.mutex);
  s.stats.analysis += counters;
  if (delta) {
    ++s.stats.delta_evaluations;
    s.stats.components_per_delta.record(counters.fps_analyses + counters.dyn_analyses +
                                        counters.schedule_builds);
  } else {
    ++s.stats.full_evaluations;
  }
  // The single-move arena tracks its own lifetime totals; mirroring them
  // (assignment, not accumulation) keeps the sum over slots exact.
  s.stats.arena_binds = s.arena.binds;
  s.stats.arena_reuses = s.arena.reuses;
}

CostEvaluator::Evaluation CostEvaluator::analyze(const BusConfig& config, bool delta) {
  Evaluation out;
  ThreadSlot& s = slot();
  auto layout = s.layout.assign(*app_, params_, config);
  if (!layout.ok()) {
    out.error = layout.error().message;
    return out;
  }
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  AnalysisWorkCounters counters;
  // The component cache serves the schedule tables other candidates built;
  // in exact mode its exact-space store also replays the explored frontier
  // of configurations whose DYN inputs are unchanged (bit-identical either
  // way; asserted below).
  auto analysis = analyze_system(s.layout, options_, &counters, {}, {}, cluster_caches_[0]);
  count_evaluation(s, counters, delta);
  if (!analysis.ok()) {
    out.error = analysis.error().message;
    return out;
  }
  out.valid = true;
  out.analysis = std::move(analysis).value();
  out.cost = out.analysis.cost;
#ifndef NDEBUG
  // Every move, and every exact-mode analysis (whose frontier the cache may
  // have replayed), is checked against a cold analysis.
  if (delta || (options_.mode == AnalysisMode::Exact && options_.exact.reuse_base_frontier)) {
    assert_matches_cold(s.layout, options_, out);
  }
#endif
  return out;
}

std::shared_ptr<const CostEvaluator::Evaluation> CostEvaluator::cached(
    const BusConfig& config) {
  if (!evaluator_options_.cache_enabled) return nullptr;
  std::lock_guard<std::mutex> lock(cache_mutex_);
  const auto it = cache_.find(config);
  return it != cache_.end() ? it->second : nullptr;
}

void CostEvaluator::insert_cache(const BusConfig& config,
                                 std::shared_ptr<const Evaluation> entry) {
  if (!evaluator_options_.cache_enabled) return;
  std::lock_guard<std::mutex> lock(cache_mutex_);
  if (cache_.size() < evaluator_options_.max_cache_entries) {
    cache_.emplace(config, std::move(entry));
  }
}

std::shared_ptr<const CostEvaluator::Evaluation> CostEvaluator::cached_system(
    const SystemConfig& config) {
  if (!evaluator_options_.cache_enabled) return nullptr;
  std::lock_guard<std::mutex> lock(cache_mutex_);
  const auto it = system_cache_.find(config);
  return it != system_cache_.end() ? it->second : nullptr;
}

void CostEvaluator::insert_system_cache(const SystemConfig& config,
                                        std::shared_ptr<const Evaluation> entry) {
  if (!evaluator_options_.cache_enabled) return;
  std::lock_guard<std::mutex> lock(cache_mutex_);
  if (system_cache_.size() < evaluator_options_.max_cache_entries) {
    system_cache_.emplace(config, std::move(entry));
  }
}

std::shared_ptr<const CostEvaluator::Evaluation> CostEvaluator::bus_entry(
    const BusConfig& config, bool delta) {
  if (const auto hit = cached(config)) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    return hit;
  }
  if (evaluator_options_.cache_enabled) cache_misses_.fetch_add(1, std::memory_order_relaxed);
  // Concurrent misses of the same configuration analyse redundantly but
  // converge on identical values (the analysis is deterministic), so no
  // per-key coordination is needed.
  auto entry = std::make_shared<const Evaluation>(analyze(config, delta));
  insert_cache(config, entry);
  return entry;
}

std::shared_ptr<const CostEvaluator::Evaluation> CostEvaluator::system_entry(
    const SystemConfig& config, bool delta) {
  if (const auto hit = cached_system(config)) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    return hit;
  }
  if (evaluator_options_.cache_enabled) cache_misses_.fetch_add(1, std::memory_order_relaxed);
  auto entry = std::make_shared<const Evaluation>(analyze_system_config(config, delta));
  insert_system_cache(config, entry);
  return entry;
}

CostEvaluator::Evaluation CostEvaluator::evaluate(const SystemConfig& config) {
  if (bus_path_ && config.cluster_count() == 1 &&
      config.clusters[0].kind == ClusterBackendKind::FlexRay) {
    return *bus_entry(config.clusters[0].flexray, /*delta=*/false);
  }
  return *system_entry(config, /*delta=*/false);
}

const CostEvaluator::Evaluation& CostEvaluator::evaluate(const SystemConfig& base,
                                                        const DeltaMove& move) {
  ThreadSlot& s = slot();
  evaluate_move(base, move, s, s.eval, /*batch=*/false);
  return s.eval;
}

void CostEvaluator::evaluate_move(const SystemConfig& base, const DeltaMove& move,
                                  ThreadSlot& s, Evaluation& out, bool batch) {
  if (bus_path_ && move.cluster == 0 && move.backend == ClusterBackendKind::FlexRay) {
    if (options_.mode == AnalysisMode::Exact) {
      // Exact-mode moves take the cached full path: its component cache
      // replays the base frontier of a move that leaves the DYN geometry
      // and message set untouched.
      out = *bus_entry(move.config, /*delta=*/true);
    } else {
      analyze_in_arena(move.config, s, batch ? s.batch_arena : s.arena, out);
    }
    return;
  }
  const auto c = static_cast<std::size_t>(move.cluster);
  if (move.cluster < 0 || c >= base.cluster_count() ||
      base.cluster_count() != model_.cluster_count() ||
      base.clusters[c].kind != move.backend) {
    out = Evaluation{};
    out.error = "evaluate: move cluster, backend or base config out of range";
    return;
  }
  s.next = base;
  if (move.backend == ClusterBackendKind::Tsn) {
    s.next.clusters[c].tsn = move.tsn;
  } else {
    s.next.clusters[c].flexray = move.config;
  }
  // The move's view: cost plus the moved cluster's holistic result only —
  // copying every cluster's result out of the cache per candidate would
  // dominate the descent's hottest path.
  const auto entry = system_entry(s.next, /*delta=*/true);
  out.valid = entry->valid;
  out.cost = entry->cost;
  out.multicluster_converged = entry->multicluster_converged;
  out.error = entry->error;
  out.cluster_analysis.clear();
  if (c < entry->cluster_analysis.size()) {
    out.analysis = entry->cluster_analysis[c];
  } else {
    out.analysis = AnalysisResult{};
  }
}

void CostEvaluator::analyze_in_arena(const BusConfig& config, ThreadSlot& s,
                                     AnalysisArena& arena, Evaluation& out) {
  if (const auto hit = cached(config)) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    out = *hit;  // vector assignments reuse the slot's capacity
    return;
  }
  if (evaluator_options_.cache_enabled) cache_misses_.fetch_add(1, std::memory_order_relaxed);
  out.valid = false;
  out.error.clear();
  out.cost = Cost{kInvalidConfigCost, false, 0};
  out.cluster_analysis.clear();
  out.multicluster_converged = true;

  auto layout = s.layout.assign(*app_, params_, config);
  if (layout.ok()) {
    evaluations_.fetch_add(1, std::memory_order_relaxed);
    AnalysisWorkCounters counters;
    auto analysis = analyze_system_incremental_into(s.layout, options_, *cluster_caches_[0],
                                                    arena, out.analysis, &counters);
    count_evaluation(s, counters, /*delta=*/true);
    if (analysis.ok()) {
      out.valid = true;
      out.cost = out.analysis.cost;
#ifndef NDEBUG
      // The slot's reused arena and the shared component cache against a
      // cold analysis; the cold call does not touch the counters.
      assert_matches_cold(s.layout, options_, out);
#endif
    } else {
      out.error = analysis.error().message;
    }
  } else {
    out.error = layout.error().message;
  }
  if (evaluator_options_.cache_enabled) {
    insert_cache(config, std::make_shared<const Evaluation>(out));
  }
}

CostEvaluator::Evaluation CostEvaluator::analyze_system_config(const SystemConfig& config,
                                                               bool delta) {
  Evaluation out;
  auto layouts = build_system_layouts(model_, params_, config);
  if (!layouts.ok()) {
    out.error = layouts.error().message;
    return out;
  }
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  AnalysisWorkCounters counters;
  auto analysis = analyze_multicluster(model_, layouts.value(), options_, MulticlusterOptions{},
                                       cluster_caches_, &counters);
  count_evaluation(slot(), counters, delta);
  if (!analysis.ok()) {
    out.error = analysis.error().message;
    return out;
  }
  MulticlusterResult result = std::move(analysis).value();
  out.valid = true;
  out.cost = result.cost;
  out.multicluster_converged = result.converged;
  out.cluster_analysis = std::move(result.clusters);

#ifndef NDEBUG
  // Debug builds cross-check every move against a cache-free run of the
  // same fixed point, bit for bit — the multi-cluster analogue of the
  // single-cluster assertion.  Full evaluations are not re-verified (they
  // are the reference construction), which keeps the sanitize lane's
  // multicluster cost at ~2x instead of ~4x.
  if (!delta) return out;
  auto reference = analyze_multicluster(model_, layouts.value(), options_);
  assert(reference.ok());
  if (reference.ok()) {
    const MulticlusterResult& ref = reference.value();
    assert(ref.converged == out.multicluster_converged);
    assert(ref.cost.value == out.cost.value);
    assert(ref.cost.schedulable == out.cost.schedulable);
    assert(ref.cost.unbounded_activities == out.cost.unbounded_activities);
    for (std::size_t c = 0; c < ref.clusters.size(); ++c) {
      assert(ref.clusters[c].task_completion == out.cluster_analysis[c].task_completion);
      assert(ref.clusters[c].message_completion == out.cluster_analysis[c].message_completion);
    }
  }
#endif
  return out;
}

CostEvaluator::~CostEvaluator() {
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    shutting_down_ = true;
  }
  pool_wake_.notify_all();
  for (std::thread& t : pool_) t.join();
}

int CostEvaluator::worker_threads() const {
  const int threads = evaluator_options_.threads > 0
                          ? evaluator_options_.threads
                          : static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, threads);
}

void CostEvaluator::ensure_pool() {
  std::lock_guard<std::mutex> lock(pool_mutex_);
  const std::size_t wanted = static_cast<std::size_t>(worker_threads()) - 1;
  while (pool_.size() < wanted) pool_.emplace_back([this] { pool_worker(); });
}

void CostEvaluator::drain(Batch& batch) {
  for (std::size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
       i < batch.order.size(); i = batch.next.fetch_add(1, std::memory_order_relaxed)) {
    const std::size_t m = batch.order[i];
    evaluate_move(*batch.base, batch.moves[m], slot(), (*batch.out)[m], /*batch=*/true);
  }
}

void CostEvaluator::pool_worker() {
  std::uint64_t seen_generation = 0;
  for (;;) {
    Batch* batch = nullptr;
    {
      std::unique_lock<std::mutex> lock(pool_mutex_);
      pool_wake_.wait(lock, [&] {
        return shutting_down_ || (batch_ != nullptr && batch_generation_ != seen_generation);
      });
      if (shutting_down_) return;
      seen_generation = batch_generation_;
      batch = batch_;
      ++batch->active;
    }
    drain(*batch);
    {
      std::lock_guard<std::mutex> lock(pool_mutex_);
      --batch->active;
    }
    pool_done_.notify_all();
  }
}

std::vector<CostEvaluator::Evaluation> CostEvaluator::evaluate(
    const SystemConfig& base, std::span<const DeltaMove> moves) {
  std::vector<Evaluation> out(moves.size());
  Batch batch;
  batch.base = &base;
  batch.moves = moves;
  batch.out = &out;
  if (worker_threads() <= 1 || moves.size() <= 1) {
    batch.order.resize(moves.size());
    std::iota(batch.order.begin(), batch.order.end(), std::size_t{0});
    drain(batch);
    return out;
  }

  // Two pool threads missing the same configuration would both analyse it,
  // where the serial loop analyses it once and serves the repeat from the
  // cache.  So the pool gets each distinct move once, and the repeats run
  // on this thread afterwards, where they hit the cache as in the serial
  // loop.  (Without a cache the serial loop analyses every repeat too.)
  std::vector<std::size_t> repeats;
  std::vector<std::size_t> hashes;
  for (std::size_t i = 0; i < moves.size(); ++i) {
    bool repeat = false;
    if (evaluator_options_.cache_enabled) {
      const DeltaMove& move = moves[i];
      hashes.push_back(move.backend == ClusterBackendKind::FlexRay ? hash_config(move.config)
                                                                   : 0);
      for (std::size_t j = 0; j < i && !repeat; ++j) {
        const DeltaMove& other = moves[j];
        repeat = hashes[j] == hashes[i] && other.backend == move.backend &&
                 other.cluster == move.cluster &&
                 (move.backend == ClusterBackendKind::FlexRay ? other.config == move.config
                                                              : other.tsn == move.tsn);
      }
    }
    (repeat ? repeats : batch.order).push_back(i);
  }

  ensure_pool();
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    batch_ = &batch;
    ++batch_generation_;
  }
  pool_wake_.notify_all();
  drain(batch);  // the caller participates
  {
    // `batch` lives on this stack frame: wait for every worker to check
    // out (they only touch it between the active ++/--) before returning.
    std::unique_lock<std::mutex> lock(pool_mutex_);
    pool_done_.wait(lock, [&] { return batch.active == 0; });
    if (batch_ == &batch) batch_ = nullptr;
  }
  for (const std::size_t i : repeats) {
    evaluate_move(base, moves[i], slot(), out[i], /*batch=*/true);
  }
  return out;
}

EvaluatorWorkStats CostEvaluator::work_stats() const {
  EvaluatorWorkStats out;
  std::lock_guard<std::mutex> lock(slots_mutex_);
  for (const auto& s : slots_) {
    std::lock_guard<std::mutex> slot_lock(s->mutex);
    out += s->stats;
  }
  return out;
}

EvaluatorCacheStats CostEvaluator::cache_stats() const {
  EvaluatorCacheStats stats;
  stats.hits = cache_hits_.load(std::memory_order_relaxed);
  stats.misses = cache_misses_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(cache_mutex_);
  stats.entries = cache_.size() + system_cache_.size();
  return stats;
}

void CostEvaluator::clear_cache() {
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    cache_.clear();
    system_cache_.clear();
  }
  for (const auto& cache : components_) cache->clear();
}

}  // namespace flexopt
