#include "flexopt/core/portfolio.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cctype>
#include <mutex>
#include <thread>
#include <utility>

#include "flexopt/util/seed_mix.hpp"

/// \file portfolio.cpp
/// See portfolio.hpp for the contract.  The implementation keeps the two
/// halves strictly apart: everything that feeds the *result* (member
/// trajectories, budgets, seeds, winner selection) is a deterministic
/// function of (application, spec, base seed), while everything that is
/// inherently racy (the shared incumbent, aggregated progress, racing
/// cuts) only ever removes work or feeds observational output.

namespace flexopt {
namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// The racy half: members publish their own improvements here.  Reads on
/// the hot path (every progress tick of every member) are single relaxed
/// atomic loads; the mutex is taken only to improve the incumbent or to
/// serialize the user's progress callback.
struct SharedIncumbent {
  std::atomic<double> cost{kInvalidConfigCost};
  std::atomic<bool> feasible{false};
  std::atomic<int> member{-1};
  std::atomic<bool> user_stop{false};  ///< user progress returned false / parent cancel
  std::mutex mutex;
  /// Serializes the user's progress callback only (callbacks need not be
  /// thread-safe); separate from `mutex` so a slow callback never blocks
  /// concurrent offer() publications.
  std::mutex progress_mutex;

  /// Improves the incumbent to (cost, feasible, member) if strictly better.
  void offer(double new_cost, bool new_feasible, int new_member) {
    if (new_cost >= cost.load(std::memory_order_relaxed)) return;
    const std::lock_guard<std::mutex> lock(mutex);
    if (new_cost >= cost.load(std::memory_order_relaxed)) return;
    feasible.store(new_feasible, std::memory_order_relaxed);
    member.store(new_member, std::memory_order_relaxed);
    cost.store(new_cost, std::memory_order_relaxed);
  }
};

class PortfolioOptimizer final : public Optimizer {
 public:
  explicit PortfolioOptimizer(PortfolioSpec spec) : spec_(std::move(spec)) {}
  [[nodiscard]] std::string_view name() const override { return "portfolio"; }
  SolveReport solve_cluster(CostEvaluator& evaluator, const SystemConfig& system, int cluster,
                            const SolveRequest& request) override;

 private:
  PortfolioSpec spec_;
};

SolveReport PortfolioOptimizer::solve_cluster(CostEvaluator& evaluator,
                                              const SystemConfig& system, int cluster,
                                              const SolveRequest& request) {
  const auto started = std::chrono::steady_clock::now();
  const std::size_t n = spec_.members.size();
  const std::uint64_t base_seed = request.seed.value_or(spec_.seed);

  // Deterministic budget split: member i gets budget/n, the first budget%n
  // members one more, and every member at least 1 so a budget below the
  // member count still races everyone (total may then exceed the budget by
  // at most n-1 analyses).
  std::vector<long> shares(n, 0);
  if (request.max_evaluations > 0) {
    const long per = request.max_evaluations / static_cast<long>(n);
    const long rem = request.max_evaluations % static_cast<long>(n);
    for (std::size_t i = 0; i < n; ++i) {
      shares[i] = std::max(1L, per + (static_cast<long>(i) < rem ? 1L : 0L));
    }
  }

  SharedIncumbent incumbent;
  std::vector<SolveReport> solves(n);
  std::vector<MemberSolveReport> members(n);
  // Last evaluation count each member reported, for the aggregated
  // progress snapshot (unique_ptr because atomics are not movable).
  std::unique_ptr<std::atomic<long>[]> evals_seen(new std::atomic<long>[n]);
  for (std::size_t i = 0; i < n; ++i) evals_seen[i].store(0, std::memory_order_relaxed);

  auto run_member = [&](int i) {
    const auto member_started = std::chrono::steady_clock::now();
    MemberSolveReport& member = members[static_cast<std::size_t>(i)];
    member.algorithm = spec_.members[static_cast<std::size_t>(i)];
    member.member = member.algorithm + "#" + std::to_string(i);
    member.seed = derive_seed(base_seed, static_cast<std::uint64_t>(i));
    member.budget = shares[static_cast<std::size_t>(i)];

    auto optimizer = OptimizerRegistry::create(member.algorithm);
    if (!optimizer.ok()) {  // member names were validated at creation time
      member.status = SolveStatus::Cancelled;
      return;
    }

    // Own single-threaded sibling evaluator: the member's evaluation
    // sequence (and its budget accounting) must not observe the other
    // members' work, or the trajectory would depend on scheduling.  The
    // sibling shares the system model, and every member searches the same
    // cluster of the same base configuration.
    EvaluatorOptions member_options = evaluator.evaluator_options();
    member_options.threads = 1;
    CostEvaluator member_eval(evaluator, member_options);

    SolveRequest member_request;
    member_request.seed = member.seed;
    member_request.max_evaluations = member.budget;
    if (request.max_wall_seconds > 0.0) {
      member_request.max_wall_seconds =
          std::max(1e-3, request.max_wall_seconds - seconds_since(started));
    }
    member_request.cancel = request.cancel;  // parent cancellation, polled directly
    double last_best = kInvalidConfigCost;
    member_request.progress = [&, i](const SolveProgress& p) -> bool {
      evals_seen[i].store(p.evaluations, std::memory_order_relaxed);
      if (p.best_cost < last_best) {
        last_best = p.best_cost;
        member.improvements.push_back(IncumbentEvent{p.evaluations, p.best_cost, p.feasible});
        incumbent.offer(p.best_cost, p.feasible, i);
      }
      if (request.progress) {
        const std::lock_guard<std::mutex> lock(incumbent.progress_mutex);
        long total = 0;
        for (std::size_t m = 0; m < n; ++m) {
          total += evals_seen[m].load(std::memory_order_relaxed);
        }
        SolveProgress aggregated;
        aggregated.algorithm = "PORTFOLIO";
        aggregated.evaluations = total;
        aggregated.max_evaluations = request.max_evaluations;
        aggregated.elapsed_seconds = seconds_since(started);
        aggregated.best_cost = incumbent.cost.load(std::memory_order_relaxed);
        aggregated.feasible = incumbent.feasible.load(std::memory_order_relaxed);
        if (!request.progress(aggregated)) incumbent.user_stop.store(true);
      }
      if (incumbent.user_stop.load(std::memory_order_relaxed)) return false;
      if (spec_.racing_cut &&
          incumbent.cost.load(std::memory_order_relaxed) < p.best_cost) {
        // Cold path: re-read the (cost, feasible, member) triple under the
        // mutex — the relaxed loads above could tear across a concurrent
        // offer() and cut against an infeasible incumbent.
        const std::lock_guard<std::mutex> lock(incumbent.mutex);
        if (incumbent.feasible.load(std::memory_order_relaxed) &&
            incumbent.member.load(std::memory_order_relaxed) != i &&
            incumbent.cost.load(std::memory_order_relaxed) < p.best_cost) {
          return false;  // strictly dominated: stop spending on this member
        }
      }
      return true;
    };

    SolveReport& solved = solves[static_cast<std::size_t>(i)];
    solved = optimizer.value()->solve_cluster(member_eval, system, cluster, member_request);
    evals_seen[i].store(solved.outcome.evaluations, std::memory_order_relaxed);
    if (solved.outcome.cost.value < last_best) {
      // An improvement on the very last evaluation lands after the final
      // progress tick; close the timeline so its tail is the member's best.
      member.improvements.push_back(IncumbentEvent{
          solved.outcome.evaluations, solved.outcome.cost.value, solved.outcome.feasible});
    }
    incumbent.offer(solved.outcome.cost.value, solved.outcome.feasible, i);

    member.cost = solved.outcome.cost.value;
    member.feasible = solved.outcome.feasible;
    member.evaluations = solved.outcome.evaluations;
    member.status = solved.status;
    member.cache_hits = solved.cache_hits;
    member.cache_misses = solved.cache_misses;
    member.delta_evaluations = solved.delta_evaluations;
    member.components_recomputed = solved.components_recomputed;
    member.components_reused = solved.components_reused;
    member.profile = solved.profile;
    member.wall_seconds = seconds_since(member_started);
  };

  // Worker pool: workers claim member indices through claim_order (a
  // shuffle hook for the determinism property test; identity by default).
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (;;) {
      const std::size_t slot = next.fetch_add(1, std::memory_order_relaxed);
      if (slot >= n) return;
      const int i = spec_.claim_order.empty() ? static_cast<int>(slot)
                                              : spec_.claim_order[slot];
      run_member(i);
    }
  };
  const std::size_t hardware = std::max(1u, std::thread::hardware_concurrency());
  std::size_t jobs = spec_.jobs > 0 ? static_cast<std::size_t>(spec_.jobs) : hardware;
  jobs = std::max<std::size_t>(1, std::min(jobs, n));
  if (jobs <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (std::size_t t = 0; t < jobs; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  // Winner: cost-argmin, ties to the lowest member index.  Computed from
  // the finished member reports — never from the racy incumbent — so the
  // selection is independent of completion order.
  std::size_t winner = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (solves[i].outcome.cost.value < solves[winner].outcome.cost.value) winner = i;
  }
  members[winner].winner = true;

  SolveReport report;
  report.outcome = solves[winner].outcome;
  report.outcome.algorithm = "PORTFOLIO";
  report.outcome.wall_seconds = seconds_since(started);
  report.winner = members[winner].member;
  long total_evaluations = 0;
  bool any_time_limit = false;
  bool any_budget_exhausted = false;
  for (std::size_t i = 0; i < n; ++i) {
    total_evaluations += members[i].evaluations;
    any_time_limit = any_time_limit || members[i].status == SolveStatus::TimeLimit;
    any_budget_exhausted =
        any_budget_exhausted || members[i].status == SolveStatus::BudgetExhausted;
    report.cache_hits += members[i].cache_hits;
    report.cache_misses += members[i].cache_misses;
    report.delta_evaluations += members[i].delta_evaluations;
    report.components_recomputed += members[i].components_recomputed;
    report.components_reused += members[i].components_reused;
    report.profile += members[i].profile;
  }
  report.outcome.evaluations = total_evaluations;
  // Racing-cut cancellations stay member-local; the portfolio itself is
  // Cancelled only when the caller asked for it.
  const bool parent_cancelled =
      (request.cancel && request.cancel->load(std::memory_order_relaxed)) ||
      incumbent.user_stop.load(std::memory_order_relaxed);
  if (parent_cancelled) {
    report.status = SolveStatus::Cancelled;
  } else if (any_time_limit) {
    report.status = SolveStatus::TimeLimit;
  } else if (request.max_evaluations > 0 && any_budget_exhausted) {
    report.status = SolveStatus::BudgetExhausted;
  }
  report.members = std::move(members);
  return report;
}

}  // namespace

bool is_portfolio_algorithm(std::string_view key) {
  // Registry names are case-insensitive; the no-nesting and front-end
  // special-case checks must be too.
  constexpr std::string_view kName = "portfolio";
  if (key.size() != kName.size()) return false;
  for (std::size_t i = 0; i < kName.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(key[i])) != kName[i]) return false;
  }
  return true;
}

Expected<std::vector<std::string>> parse_portfolio_members(std::string_view text) {
  std::vector<std::string> members;
  std::string token;
  auto flush = [&]() -> Expected<bool> {
    if (token.empty()) return true;
    std::string key = token;
    long count = 1;
    // NxKEY repetition, e.g. "4xsa".  A lone leading digit run followed by
    // 'x' is the multiplier; anything else is taken as a registry key.
    const std::size_t x = token.find('x');
    if (x != std::string::npos && x > 0 &&
        token.find_first_not_of("0123456789") == x) {
      try {
        count = std::stol(token.substr(0, x));
      } catch (const std::exception&) {
        return make_error("portfolio member '" + token + "': count out of range");
      }
      key = token.substr(x + 1);
      if (count < 1) return make_error("portfolio member '" + token + "': count must be >= 1");
      if (count > 4096) return make_error("portfolio member '" + token + "': count too large");
      if (key.empty()) return make_error("portfolio member '" + token + "': missing key");
    }
    if (!OptimizerRegistry::contains(key)) {
      return make_error("portfolio member '" + key + "' is not a registered optimizer");
    }
    if (is_portfolio_algorithm(key)) {
      return make_error("portfolio members cannot nest another portfolio");
    }
    for (long i = 0; i < count; ++i) members.push_back(key);
    token.clear();
    return true;
  };
  for (const char c : text) {
    if (c == ',' || c == ' ' || c == '\t' || c == '+') {
      auto flushed = flush();
      if (!flushed.ok()) return flushed.error();
    } else {
      token.push_back(c);
    }
  }
  auto flushed = flush();
  if (!flushed.ok()) return flushed.error();
  if (members.empty()) return make_error("portfolio: empty member list");
  return members;
}

std::string format_portfolio_members(const std::vector<std::string>& members) {
  std::string out;
  std::size_t i = 0;
  while (i < members.size()) {
    std::size_t run = i;
    while (run < members.size() && members[run] == members[i]) ++run;
    if (!out.empty()) out += "+";
    if (run - i > 1) out += std::to_string(run - i) + "x";
    out += members[i];
    i = run;
  }
  return out;
}

Expected<std::unique_ptr<Optimizer>> make_portfolio_optimizer(PortfolioSpec spec) {
  if (spec.members.empty()) return make_error("portfolio: empty member list");
  if (spec.jobs < 0) return make_error("portfolio: jobs must be >= 0");
  for (const std::string& key : spec.members) {
    if (!OptimizerRegistry::contains(key)) {
      return make_error("portfolio member '" + key + "' is not a registered optimizer");
    }
    if (is_portfolio_algorithm(key)) {
      return make_error("portfolio members cannot nest another portfolio");
    }
  }
  if (!spec.claim_order.empty()) {
    std::vector<bool> seen(spec.members.size(), false);
    if (spec.claim_order.size() != spec.members.size()) {
      return make_error("portfolio: claim_order must be a permutation of the member indices");
    }
    for (const int i : spec.claim_order) {
      if (i < 0 || static_cast<std::size_t>(i) >= spec.members.size() ||
          seen[static_cast<std::size_t>(i)]) {
        return make_error("portfolio: claim_order must be a permutation of the member indices");
      }
      seen[static_cast<std::size_t>(i)] = true;
    }
  }
  return std::unique_ptr<Optimizer>(std::make_unique<PortfolioOptimizer>(std::move(spec)));
}

}  // namespace flexopt
