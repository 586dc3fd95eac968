// Property tests for the bound-and-prune candidate scoring of the list
// scheduler (Fig. 2 line 11): fps_response_time_sum with a bound returns
// the exact sum whenever that is below the bound and a value at or above
// the bound otherwise, for any seeds (infinite ones included); and a
// candidate loop that passes its best cost so far as the bound chooses
// the same start as the unbounded argmin, ties going to the earlier start.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "flexopt/analysis/fps_analysis.hpp"
#include "flexopt/analysis/sat_time.hpp"
#include "flexopt/util/rng.hpp"

namespace flexopt {
namespace {

struct Node {
  Time period = 0;  // hyper-period of the SCS table
  std::vector<Interval> busy;
  std::vector<FpsTaskParams> fps;
};

Node make_node(Rng& rng) {
  Node node;
  node.period = 200 * rng.uniform_int(1, 8);
  const int n_busy = static_cast<int>(rng.uniform_int(0, 6));
  for (int i = 0; i < n_busy; ++i) {
    const Time start = rng.uniform_int(0, node.period - 1);
    node.busy.push_back({start, std::min(node.period, start + rng.uniform_int(1, 60))});
  }
  const int n_fps = static_cast<int>(rng.uniform_int(1, 6));
  const Time periods[] = {100, 200, 400, 800};
  for (int i = 0; i < n_fps; ++i) {
    FpsTaskParams t;
    t.id = static_cast<TaskId>(i);
    t.period = periods[rng.uniform_int(0, 3)];
    t.wcet = rng.uniform_int(1, t.period / 4);
    t.priority = static_cast<int>(rng.uniform_int(0, 3));
    t.jitter = rng.chance(0.7) ? 0 : rng.uniform_int(0, 50);
    node.fps.push_back(t);
  }
  return node;
}

/// Base-profile seeds as the list scheduler computes them (pre-jitter busy
/// values), with some replaced by infinity or by arbitrary values: the
/// prune must stay exact for any seed, not only contract-abiding ones.
std::vector<Time> make_seeds(const Node& node, Rng& rng) {
  const BusyProfile base(node.busy, node.period);
  std::vector<Time> seeds;
  for (const FpsTaskParams& t : node.fps) {
    const Time r = fps_response_time(t, node.fps, base, 4 * node.period);
    Time seed = is_infinite(r) ? kTimeInfinity : r - t.jitter;
    if (rng.chance(0.1)) seed = kTimeInfinity;
    if (rng.chance(0.05)) seed = rng.uniform_int(0, 2 * node.period);
    seeds.push_back(seed);
  }
  return seeds;
}

/// Oracle: the unpruned sum, one fps_response_time call per task (an
/// infinite seed short-circuits to unbounded, an unbounded response counts
/// as `horizon`).
Time reference_sum(const Node& node, const BusyProfile& profile, Time horizon,
                   const std::vector<Time>& seeds) {
  Time sum = 0;
  for (std::size_t i = 0; i < node.fps.size(); ++i) {
    const Time seed = seeds.empty() ? 0 : seeds[i];
    if (is_infinite(seed)) {
      sum = sat_add(sum, horizon);
      continue;
    }
    const Time r = fps_response_time(node.fps[i], node.fps, profile, horizon, nullptr, seed);
    sum = sat_add(sum, is_infinite(r) ? horizon : r);
  }
  return sum;
}

TEST(FpsPrune, BoundedSumIsExactBelowTheBoundAndAtLeastTheBoundOtherwise) {
  int pruned = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    Rng rng(seed);
    const Node node = make_node(rng);
    const Time horizon = 4 * node.period;
    std::vector<Interval> busy = node.busy;
    const Time s = rng.uniform_int(0, node.period - 1);
    busy.push_back({s, std::min(node.period, s + rng.uniform_int(1, 80))});
    const BusyProfile profile(busy, node.period);
    const std::vector<Time> seeds = rng.chance(0.2) ? std::vector<Time>{} : make_seeds(node, rng);

    const Time exact = reference_sum(node, profile, horizon, seeds);
    EXPECT_EQ(fps_response_time_sum(node.fps, profile, horizon, seeds), exact) << seed;
    std::vector<Time> bounds = {0, 1, exact, exact + 1, kTimeInfinity,
                                rng.uniform_int(0, 2 * exact + 1)};
    if (exact > 0) bounds.push_back(exact - 1);
    for (const Time bound : bounds) {
      const Time got = fps_response_time_sum(node.fps, profile, horizon, seeds, bound);
      const std::string where = "seed " + std::to_string(seed) + " bound " +
                                std::to_string(bound) + " exact " + std::to_string(exact);
      if (exact < bound) {
        EXPECT_EQ(got, exact) << where;
      } else {
        EXPECT_GE(got, bound) << where;
        if (got != exact) ++pruned;
      }
    }
  }
  // The population must exercise the early exit, not only the full sum.
  EXPECT_GT(pruned, 0);
}

TEST(FpsPrune, PrunedCandidateLoopChoosesTheUnboundedArgmin) {
  int ties = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    const Node node = make_node(rng);
    const Time horizon = 4 * node.period;
    const std::vector<Time> seeds = make_seeds(node, rng);
    const Time len = rng.uniform_int(1, 80);
    std::vector<Time> starts;
    const int n_starts = static_cast<int>(rng.uniform_int(2, 6));
    for (int i = 0; i < n_starts; ++i) starts.push_back(rng.uniform_int(0, node.period - 1));
    // A repeated start is an exact tie; the earlier copy must win.
    if (rng.chance(0.3)) starts.push_back(starts[rng.index(starts.size())]);
    std::sort(starts.begin(), starts.end());

    std::size_t want = 0;
    Time want_cost = kTimeInfinity;
    std::size_t got = 0;
    Time best_cost = kTimeInfinity;
    std::vector<Time> costs;
    for (std::size_t c = 0; c < starts.size(); ++c) {
      std::vector<Interval> busy = node.busy;
      busy.push_back({starts[c], std::min(node.period, starts[c] + len)});
      const BusyProfile profile(busy, node.period);
      const Time full = reference_sum(node, profile, horizon, seeds);
      costs.push_back(full);
      if (full < want_cost) {
        want_cost = full;
        want = c;
      }
      const Time bounded = fps_response_time_sum(node.fps, profile, horizon, seeds, best_cost);
      if (bounded < best_cost) {
        best_cost = bounded;
        got = c;
      }
    }
    EXPECT_EQ(got, want) << "seed " << seed;
    EXPECT_EQ(best_cost, want_cost) << "seed " << seed;
    if (std::count(costs.begin(), costs.end(), want_cost) > 1) ++ties;
  }
  EXPECT_GT(ties, 0);  // the population must contain ties
}

}  // namespace
}  // namespace flexopt
