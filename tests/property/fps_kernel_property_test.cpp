// The prepared FPS kernel (fps_response_time over an FpsTaskSet) against
// the plain recurrence it replaced (reference_fps_response_time in
// tests/placement_oracle.hpp), bit for bit, on random node groups: finite,
// infinite and mixed jitters, equal and distinct priorities, seeds, and
// periods and WCETs near INT64_MAX where the products saturate.  The
// kernel's iteration count and cap verdict must match the reference's too.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "flexopt/analysis/fps_analysis.hpp"
#include "flexopt/analysis/sat_time.hpp"
#include "flexopt/util/rng.hpp"
#include "placement_oracle.hpp"

namespace flexopt {
namespace {

constexpr Time kMax = std::numeric_limits<Time>::max();

struct Group {
  Time period = 0;  // of the SCS profile
  std::vector<Interval> busy;
  std::vector<testing::ReferenceFpsTask> fps;
  Time horizon = 0;
};

/// A node group.  `huge` draws some periods and WCETs near INT64_MAX; the
/// reference's ceil_div(w + J, T) must not overflow, so those periods stay
/// below kMax - 2^41 and the horizon and jitters below 2^40.
Group make_group(Rng& rng, bool huge) {
  Group g;
  g.period = 100 * rng.uniform_int(1, 20);
  const int n_busy = static_cast<int>(rng.uniform_int(0, 8));
  for (int i = 0; i < n_busy; ++i) {
    const Time start = rng.uniform_int(0, g.period - 1);
    g.busy.push_back({start, std::min(g.period, start + rng.uniform_int(1, g.period / 8 + 1))});
  }
  g.horizon = rng.chance(0.8) ? 4 * g.period : rng.uniform_int(1, Time{1} << 40);
  const int n = static_cast<int>(rng.uniform_int(1, 8));
  const Time periods[] = {50, 100, 200, 400, 800, 1600};
  for (int i = 0; i < n; ++i) {
    testing::ReferenceFpsTask t;
    t.id = static_cast<TaskId>(2 * i + 1);  // sparse ids: jitter slots are task indices
    t.period = periods[rng.uniform_int(0, 5)];
    t.wcet = rng.uniform_int(1, std::max<Time>(1, t.period / 3));
    t.priority = static_cast<int>(rng.uniform_int(0, 3));  // frequent ties
    if (huge && rng.chance(0.4)) {
      t.period = kMax / 4 * 3 - rng.uniform_int(0, Time{1} << 20);
      t.wcet = rng.chance(0.5) ? t.period / static_cast<Time>(rng.uniform_int(2, 5))
                                : rng.uniform_int(1, 1000);
    }
    if (huge && rng.chance(0.2)) {
      // A WCET near INT64_MAX: sat_add saturates in the first iterate.
      t.period = kMax / 4 * 3;
      t.wcet = t.period / 2;
    }
    const double roll = rng.uniform_real(0.0, 1.0);
    if (roll < 0.5) {
      t.jitter = 0;
    } else if (roll < 0.9) {
      t.jitter = rng.uniform_int(0, 3 * g.period);
    } else if (roll < 0.95) {
      t.jitter = rng.uniform_int(0, Time{1} << 40);
    } else {
      t.jitter = kTimeInfinity;
    }
    g.fps.push_back(t);
  }
  return g;
}

void expect_kernel_matches_reference(const Group& g, const std::string& where, int& checks,
                                     int& finite) {
  const BusyProfile profile(g.busy, g.period);
  FpsTaskSet set;
  set.add_node(testing::kernel_params(g.fps));
  std::vector<Time> jitter(2 * g.fps.size() + 2, 0);
  for (const testing::ReferenceFpsTask& t : g.fps) jitter[index_of(t.id)] = t.jitter;
  FpsScratch scratch;
  for (std::size_t i = 0; i < g.fps.size(); ++i) {
    const FpsTask& task = set.node(0)[i];
    ASSERT_EQ(task.task, static_cast<std::uint32_t>(index_of(g.fps[i].id))) << where;
    // Unseeded, and seeded with the reference's own busy value minus a bit
    // (a lower bound of the least fixed point that is not the answer).
    int ref_iterations = 0;
    int ref_caps = 0;
    const Time want = testing::reference_fps_response_time(
        g.fps[i], g.fps, profile, g.horizon, &ref_iterations, 0, &ref_caps);
    const FpsResponse got = fps_response_time(task, set.interferers_of(task), jitter, profile,
                                              g.horizon, scratch);
    const std::string what = where + " task " + std::to_string(i);
    EXPECT_EQ(got.response, want) << what;
    EXPECT_EQ(got.iterations, ref_iterations) << what;
    EXPECT_EQ(got.stop == FpsStop::Capped, ref_caps == 1) << what;
    ++checks;
    if (is_infinite(want)) continue;
    ++finite;
    const Time busy = want - g.fps[i].jitter;
    const Time seed = busy / 2;
    const Time want_seeded = testing::reference_fps_response_time(g.fps[i], g.fps, profile,
                                                                  g.horizon, nullptr, seed);
    const FpsResponse seeded = fps_response_time(task, set.interferers_of(task), jitter,
                                                 profile, g.horizon, scratch, seed);
    EXPECT_EQ(seeded.response, want_seeded) << what << " seed " << seed;
  }
}

TEST(FpsKernelProperty, MatchesTheReferenceRecurrenceOnRandomGroups) {
  int checks = 0;
  int finite = 0;
  for (std::uint64_t seed = 1; seed <= 600; ++seed) {
    Rng rng(seed);
    expect_kernel_matches_reference(make_group(rng, /*huge=*/false), "seed " + std::to_string(seed),
                                    checks, finite);
  }
  EXPECT_GT(finite, checks / 4);  // most recurrences must actually iterate
}

TEST(FpsKernelProperty, MatchesTheReferenceNearInt64Max) {
  int checks = 0;
  int finite = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    Rng rng(0xbeef0000u + seed);
    expect_kernel_matches_reference(make_group(rng, /*huge=*/true),
                                    "huge seed " + std::to_string(seed), checks, finite);
  }
  EXPECT_GT(finite, 0);
}

TEST(FpsKernelProperty, MatchesTheReferenceAtTheIterationCap) {
  // One interferer of 9,999 every 10,000: a task of wcet C below 10,000
  // crawls through one release per iteration to w = 10,000 C, so these
  // recurrences converge well below, just below and at the
  // 10,000-iteration cap, or stop at it.
  int capped = 0;
  int converged = 0;
  for (const Time wcet : {5'000, 9'000, 9'990, 9'998, 10'500, 20'000}) {
    Group g;
    g.period = 1'000'000'000;
    g.horizon = 4 * g.period;
    g.fps = {testing::ReferenceFpsTask{TaskId{0}, 9'999, 10'000, 0, 0},
             testing::ReferenceFpsTask{TaskId{1}, wcet, 1'000'000'000, 0, 1}};
    const BusyProfile profile(g.busy, g.period);
    int iterations = 0;
    int caps = 0;
    testing::reference_fps_response_time(g.fps[1], g.fps, profile, g.horizon, &iterations, 0,
                                         &caps);
    capped += caps;
    converged += 1 - caps;
    int checks = 0;
    int finite = 0;
    expect_kernel_matches_reference(g, "cap wcet " + std::to_string(wcet), checks, finite);
  }
  EXPECT_GT(capped, 0);
  EXPECT_GT(converged, 0);
}

}  // namespace
}  // namespace flexopt
