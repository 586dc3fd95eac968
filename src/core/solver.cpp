#include "flexopt/core/solver.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <climits>
#include <map>
#include <mutex>

#include "flexopt/core/config_builder.hpp"
#include "flexopt/core/tsn_search.hpp"
#include "flexopt/util/seed_mix.hpp"

namespace flexopt {

// ---- SolveControl ----------------------------------------------------------

const char* to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::Complete:
      return "complete";
    case SolveStatus::BudgetExhausted:
      return "budget-exhausted";
    case SolveStatus::TimeLimit:
      return "time-limit";
    case SolveStatus::Cancelled:
      return "cancelled";
  }
  return "unknown";
}

SolveControl::SolveControl(const SolveRequest& request, const CostEvaluator& evaluator,
                           std::string_view algorithm)
    : request_(&request),
      algorithm_(algorithm),
      start_(std::chrono::steady_clock::now()),
      evals_at_start_(evaluator.evaluations()) {}

double SolveControl::elapsed_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
}

long SolveControl::evaluations_used(const CostEvaluator& evaluator) const {
  return evaluator.evaluations() - evals_at_start_;
}

long SolveControl::remaining_evaluations(const CostEvaluator& evaluator) const {
  if (request_->max_evaluations <= 0) return LONG_MAX;
  return std::max(0L, request_->max_evaluations - evaluations_used(evaluator));
}

void SolveControl::mark_budget_exhausted_if_spent(const CostEvaluator& evaluator) {
  if (status_ == SolveStatus::Complete && request_->max_evaluations > 0 &&
      evaluations_used(evaluator) >= request_->max_evaluations) {
    status_ = SolveStatus::BudgetExhausted;
  }
}

void SolveControl::note_best(const Cost& cost) {
  if (cost.value < best_cost_) {
    best_cost_ = cost.value;
    best_feasible_ = cost.schedulable;
  }
}

bool SolveControl::should_stop(const CostEvaluator& evaluator) {
  if (status_ != SolveStatus::Complete) return true;  // sticky

  if (request_->cancel && request_->cancel->load(std::memory_order_relaxed)) {
    status_ = SolveStatus::Cancelled;
    return true;
  }
  if (request_->max_wall_seconds > 0.0 && elapsed_seconds() >= request_->max_wall_seconds) {
    status_ = SolveStatus::TimeLimit;
    return true;
  }
  const long used = evaluations_used(evaluator);
  if (request_->max_evaluations > 0 && used >= request_->max_evaluations) {
    status_ = SolveStatus::BudgetExhausted;
    return true;
  }
  if (request_->progress && used != last_reported_evals_) {
    last_reported_evals_ = used;
    SolveProgress progress;
    progress.algorithm = algorithm_;
    progress.evaluations = used;
    progress.max_evaluations = request_->max_evaluations;
    progress.elapsed_seconds = elapsed_seconds();
    progress.best_cost = best_cost_;
    progress.feasible = best_feasible_;
    if (!request_->progress(progress)) {
      status_ = SolveStatus::Cancelled;
      return true;
    }
  }
  return false;
}

// ---- Optimizer::solve: multi-cluster coordinate descent --------------------

namespace {

/// Deterministic block-coordinate descent over the per-cluster
/// configuration product: each pass hands the single-bus algorithm the
/// incumbent and one cluster index, and the algorithm optimises that
/// coordinate against the full cross-cluster cost; a cluster's best config
/// is accepted only when it strictly improves the system cost.  Rounds repeat until a full round
/// brings no improvement, the round cap is hit, or a budget/limit fires.
/// Everything that feeds the result is a deterministic function of
/// (system, algorithm, base seed) — worker threads inside a pass (portfolio
/// members, the evaluator's batch pool) never change which configuration
/// wins.
SolveReport solve_multicluster(Optimizer& algorithm, CostEvaluator& evaluator,
                               const SolveRequest& request) {
  constexpr int kMaxRounds = 3;
  const auto started = std::chrono::steady_clock::now();
  auto elapsed = [&started] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
  };
  const SystemModel& model = evaluator.system_model();
  const std::size_t C = model.cluster_count();
  // Work accounting aggregates the per-pass reports, not the parent
  // evaluator's counters: a portfolio pass races its members on sibling
  // evaluators whose analyses the parent never sees.  Work done outside a
  // FlexRay pass (the initial evaluation, TSN descents) is read off the
  // parent evaluator's counters around it.
  long spent_evaluations = 0;
  auto spent = [&] { return spent_evaluations; };

  // Seed the incumbent with every cluster's minimal start configuration —
  // the same per-sender (FlexRay) / exact-fit-gate (TSN) minimal point
  // every per-cluster walk seeds from.
  SystemConfig incumbent;
  incumbent.clusters.resize(C);
  for (std::size_t c = 0; c < C; ++c) {
    incumbent.clusters[c] =
        minimal_start_cluster_config(*model.cluster_app(c), evaluator.params(),
                                     model.cluster_app(c)->cluster_backend(ClusterId{0}));
  }

  SolveReport report;
  // Charges work read off the parent evaluator's counters to the report.
  auto add_parent_work = [&](const EvaluatorWorkStats& work) {
    report.delta_evaluations += work.delta_evaluations;
    report.components_recomputed += work.analysis.components();
    report.components_reused += work.components_reused();
    report.profile += work;
  };
  Cost best{kInvalidConfigCost, false, 0};
  {
    // Charged by what actually ran: a repeat solve on the same evaluator
    // serves this from the system cache and spends nothing.
    const long evals_before = evaluator.evaluations();
    const EvaluatorCacheStats cache_before = evaluator.cache_stats();
    const EvaluatorWorkStats work_before = evaluator.work_stats();
    const auto initial = evaluator.evaluate(incumbent);
    const EvaluatorCacheStats cache_after = evaluator.cache_stats();
    add_parent_work(evaluator.work_stats().since(work_before));
    spent_evaluations += evaluator.evaluations() - evals_before;
    report.cache_hits += cache_after.hits - cache_before.hits;
    report.cache_misses += cache_after.misses - cache_before.misses;
    if (initial.valid) best = initial.cost;
  }
  const long total_budget = request.max_evaluations;
  const long pass_share =
      total_budget > 0
          ? std::max(1L, total_budget / (static_cast<long>(kMaxRounds) * static_cast<long>(C)))
          : 0;

  SolveStatus status = SolveStatus::Complete;
  int pass_index = 0;
  for (int round = 0; round < kMaxRounds && status == SolveStatus::Complete; ++round) {
    bool improved = false;
    for (std::size_t c = 0; c < C && status == SolveStatus::Complete; ++c, ++pass_index) {
      if (request.cancel && request.cancel->load(std::memory_order_relaxed)) {
        status = SolveStatus::Cancelled;
        break;
      }
      if (total_budget > 0 && spent() >= total_budget) {
        status = SolveStatus::BudgetExhausted;
        break;
      }
      if (request.max_wall_seconds > 0.0 && elapsed() >= request.max_wall_seconds) {
        status = SolveStatus::TimeLimit;
        break;
      }

      SolveRequest pass_request;
      // SolveRequest::seed semantics carry over: a set seed is fanned out
      // per pass (repeat passes explore different trajectories); unset
      // keeps the per-algorithm payload's own seed, exactly like a
      // single-cluster solve.
      if (request.seed) {
        pass_request.seed = derive_seed(*request.seed, static_cast<std::uint64_t>(pass_index));
      }
      if (total_budget > 0) {
        pass_request.max_evaluations = std::min(pass_share, std::max(1L, total_budget - spent()));
      }
      if (request.max_wall_seconds > 0.0) {
        pass_request.max_wall_seconds = std::max(1e-3, request.max_wall_seconds - elapsed());
      }
      if (request.progress) {
        // Report descent-wide progress: pass-local counters are offset by
        // the work already spent and shown against the caller's budget,
        // so the CLI line advances monotonically instead of resetting per
        // pass.
        const long spent_before_pass = spent_evaluations;
        pass_request.progress = [&request, spent_before_pass,
                                 total_budget](const SolveProgress& p) {
          SolveProgress overall = p;
          overall.evaluations = spent_before_pass + p.evaluations;
          overall.max_evaluations = total_budget;
          return request.progress(overall);
        };
      }
      pass_request.cancel = request.cancel;

      if (model.cluster_app(c)->cluster_backend(ClusterId{0}) == ClusterBackendKind::Tsn) {
        // TSN coordinate: the single-bus algorithms search FlexRay buses,
        // so the pass is the deterministic TSN descent, scored through
        // TSN moves against the same full cross-cluster cost.
        const EvaluatorCacheStats cache_before = evaluator.cache_stats();
        const EvaluatorWorkStats work_before = evaluator.work_stats();
        TsnSearchResult tsn =
            tsn_coordinate_descent(evaluator, incumbent, static_cast<int>(c), pass_request);
        const EvaluatorCacheStats cache_after = evaluator.cache_stats();
        add_parent_work(evaluator.work_stats().since(work_before));
        spent_evaluations += tsn.evaluations;
        report.cache_hits += cache_after.hits - cache_before.hits;
        report.cache_misses += cache_after.misses - cache_before.misses;
        if (tsn.status == SolveStatus::Cancelled) {
          status = SolveStatus::Cancelled;
        } else if (tsn.status == SolveStatus::TimeLimit && request.max_wall_seconds > 0.0) {
          status = SolveStatus::TimeLimit;
        }
        if (tsn.improved && tsn.cost.value < best.value) {
          best = tsn.cost;
          incumbent.clusters[c] = ClusterConfig::tsn_switch(std::move(tsn.config));
          improved = true;
        }
        continue;
      }

      SolveReport pass =
          algorithm.solve_cluster(evaluator, incumbent, static_cast<int>(c), pass_request);
      spent_evaluations += pass.outcome.evaluations;
      report.cache_hits += pass.cache_hits;
      report.cache_misses += pass.cache_misses;
      report.delta_evaluations += pass.delta_evaluations;
      report.components_recomputed += pass.components_recomputed;
      report.components_reused += pass.components_reused;
      report.profile += pass.profile;

      // Built by append rather than operator+ chaining: GCC 12's inliner
      // raises a spurious -Wrestrict on the temporary chain.
      std::string prefix = "c";
      prefix += std::to_string(c);
      prefix += 'r';
      prefix += std::to_string(round);
      prefix += '/';
      for (MemberSolveReport member : pass.members) {
        member.member = prefix + member.member;
        report.members.push_back(std::move(member));
      }
      if (pass.status == SolveStatus::Cancelled) {
        status = SolveStatus::Cancelled;
      } else if (pass.status == SolveStatus::TimeLimit && request.max_wall_seconds > 0.0) {
        // The pass ran out of the caller's wall-clock budget mid-solve; a
        // truncated descent must not report "complete".
        status = SolveStatus::TimeLimit;
      }
      if (pass.outcome.cost.value < best.value) {
        best = pass.outcome.cost;
        incumbent.clusters[c] = ClusterConfig::flexray_bus(pass.outcome.config);
        improved = true;
        if (!pass.winner.empty()) report.winner = prefix + pass.winner;
      }
    }
    if (!improved && status == SolveStatus::Complete) break;  // coordinate-wise optimum
  }
  if (status == SolveStatus::Complete && total_budget > 0 && spent() >= total_budget) {
    status = SolveStatus::BudgetExhausted;
  }

  report.status = status;
  report.outcome.system = incumbent;
  if (incumbent.clusters[0].kind == ClusterBackendKind::FlexRay) {
    report.outcome.config = incumbent.clusters[0].flexray;
  }
  report.outcome.cost = best;
  report.outcome.feasible = best.schedulable;
  report.outcome.evaluations = spent();
  report.outcome.wall_seconds = elapsed();
  report.outcome.algorithm =
      std::string(algorithm.name()) + " (" + std::to_string(C) + "-cluster descent)";
  return report;
}

/// Degenerate single-cluster TSN solve: no FlexRay coordinate exists for
/// solve_cluster to search, so the whole solve is one TSN descent from the
/// minimal start configuration.  Every registry algorithm maps to the same
/// deterministic descent here — the per-algorithm tuning payloads have no
/// TSN knobs (yet).
SolveReport solve_single_tsn(CostEvaluator& evaluator, const SolveRequest& request) {
  const auto started = std::chrono::steady_clock::now();
  SystemConfig incumbent;
  incumbent.clusters.push_back(minimal_start_cluster_config(
      *evaluator.system_model().cluster_app(0), evaluator.params(), ClusterBackendKind::Tsn));
  const EvaluatorCacheStats cache_before = evaluator.cache_stats();
  TsnSearchResult tsn = tsn_coordinate_descent(evaluator, incumbent, 0, request);
  const EvaluatorCacheStats cache_after = evaluator.cache_stats();

  SolveReport report;
  report.status = tsn.status;
  incumbent.clusters[0] = ClusterConfig::tsn_switch(std::move(tsn.config));
  report.outcome.system = std::move(incumbent);
  report.outcome.cost = tsn.cost;
  report.outcome.feasible = tsn.cost.schedulable;
  report.outcome.evaluations = tsn.evaluations;
  report.outcome.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
  report.outcome.algorithm = "tsn-descent";
  report.cache_hits = cache_after.hits - cache_before.hits;
  report.cache_misses = cache_after.misses - cache_before.misses;
  return report;
}

}  // namespace

SolveReport Optimizer::solve(CostEvaluator& evaluator, const SolveRequest& request) {
  if (evaluator.cluster_count() > 1) return solve_multicluster(*this, evaluator, request);
  if (evaluator.system_model().cluster_app(0)->cluster_backend(ClusterId{0}) ==
      ClusterBackendKind::Tsn) {
    return solve_single_tsn(evaluator, request);
  }
  SolveReport report = solve_cluster(evaluator, SystemConfig::single(BusConfig{}), 0, request);
  if (report.outcome.system.clusters.empty()) {
    report.outcome.system = SystemConfig::single(report.outcome.config);
  }
  return report;
}

// ---- OptimizerRegistry -----------------------------------------------------

namespace {

struct RegistryEntry {
  std::string description;
  OptimizerRegistry::Factory factory;
};

struct RegistryState {
  std::mutex mutex;
  std::map<std::string, RegistryEntry> entries;
};

RegistryState& registry_state() {
  static RegistryState state;
  return state;
}

std::string normalize_name(std::string_view name) {
  std::string out(name);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  // Legacy CLI spellings.
  if (out == "obccf" || out == "obc_cf") return "obc-cf";
  if (out == "obcee" || out == "obc_ee") return "obc-ee";
  return out;
}

}  // namespace

void OptimizerRegistry::register_optimizer(std::string name, std::string description,
                                           Factory factory) {
  RegistryState& state = registry_state();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.entries[normalize_name(name)] =
      RegistryEntry{std::move(description), std::move(factory)};
}

Expected<std::unique_ptr<Optimizer>> OptimizerRegistry::create(std::string_view name,
                                                               const OptimizerParams& params) {
  detail::ensure_builtin_optimizers_registered();
  RegistryState& state = registry_state();
  Factory factory;
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    const auto it = state.entries.find(normalize_name(name));
    if (it == state.entries.end()) {
      std::string known;
      for (const auto& [key, entry] : state.entries) {
        if (!known.empty()) known += ", ";
        known += key;
      }
      return make_error("unknown optimizer '" + std::string(name) +
                        "'; available: " + known);
    }
    factory = it->second.factory;  // invoke outside the lock
  }
  return factory(params);
}

std::vector<OptimizerInfo> OptimizerRegistry::list() {
  detail::ensure_builtin_optimizers_registered();
  RegistryState& state = registry_state();
  std::lock_guard<std::mutex> lock(state.mutex);
  std::vector<OptimizerInfo> out;
  out.reserve(state.entries.size());
  for (const auto& [name, entry] : state.entries) {
    out.push_back(OptimizerInfo{name, entry.description});
  }
  return out;  // std::map iteration is already name-sorted
}

bool OptimizerRegistry::contains(std::string_view name) {
  detail::ensure_builtin_optimizers_registered();
  RegistryState& state = registry_state();
  std::lock_guard<std::mutex> lock(state.mutex);
  return state.entries.contains(normalize_name(name));
}

}  // namespace flexopt
