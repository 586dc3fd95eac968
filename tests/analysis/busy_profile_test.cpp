#include "flexopt/analysis/busy_profile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "flexopt/util/rng.hpp"

namespace flexopt {
namespace {

TEST(NormalizeIntervals, MergesAndSorts) {
  auto merged = normalize_intervals({{5, 8}, {1, 3}, {2, 4}, {8, 9}});
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0], (Interval{1, 4}));
  EXPECT_EQ(merged[1], (Interval{5, 9}));
}

TEST(NormalizeIntervals, DropsEmpty) {
  auto merged = normalize_intervals({{3, 3}, {5, 4}});
  EXPECT_TRUE(merged.empty());
}

TEST(BusyProfile, BusyBetweenWithinPeriod) {
  const BusyProfile p({{2, 4}, {6, 9}}, 10);
  EXPECT_EQ(p.busy_per_period(), 5);
  EXPECT_EQ(p.busy_between(0, 10), 5);
  EXPECT_EQ(p.busy_between(0, 3), 1);
  EXPECT_EQ(p.busy_between(3, 7), 2);
  EXPECT_EQ(p.busy_between(4, 6), 0);
}

TEST(BusyProfile, BusyBetweenAcrossPeriods) {
  const BusyProfile p({{2, 4}}, 10);
  EXPECT_EQ(p.busy_between(0, 20), 4);
  EXPECT_EQ(p.busy_between(3, 13), 1 + 1);   // tail of first + head of second
  EXPECT_EQ(p.busy_between(5, 35), 6);
}

TEST(BusyProfile, MaxBusyInWindow) {
  const BusyProfile p({{0, 3}, {5, 6}}, 10);
  EXPECT_EQ(p.max_busy_in_window(3), 3);
  EXPECT_EQ(p.max_busy_in_window(6), 4);   // [0,6): 3 + 1
  EXPECT_EQ(p.max_busy_in_window(10), 4);
  EXPECT_EQ(p.max_busy_in_window(20), 8);
  EXPECT_EQ(p.max_busy_in_window(0), 0);
}

TEST(BusyProfile, MaxBusyWindowStraddlesPeriodBoundary) {
  // Busy at the end and the start of the period: a straddling window sees
  // both.
  const BusyProfile p({{8, 10}, {0, 2}}, 10);
  EXPECT_EQ(p.max_busy_in_window(4), 4);
}

TEST(BusyProfile, EmptyProfile) {
  const BusyProfile p({}, 10);
  EXPECT_EQ(p.max_busy_in_window(100), 0);
  EXPECT_EQ(p.busy_between(3, 33), 0);
  EXPECT_EQ(p.earliest_gap(7, 10), 7);
}

TEST(BusyProfile, EarliestGapBasics) {
  const BusyProfile p({{2, 4}, {6, 9}}, 10);
  EXPECT_EQ(p.earliest_gap(0, 2), 0);   // [0,2) free
  EXPECT_EQ(p.earliest_gap(1, 2), 4);   // [1,3) blocked; [4,6) free
  EXPECT_EQ(p.earliest_gap(3, 1), 4);
  EXPECT_EQ(p.earliest_gap(7, 2), 9);   // wraps into [9,10)+[10,11)
}

TEST(BusyProfile, EarliestGapTooLong) {
  const BusyProfile p({{0, 9}}, 10);
  EXPECT_EQ(p.earliest_gap(0, 2), kTimeInfinity);  // largest gap is 1
  EXPECT_EQ(p.earliest_gap(0, 1), 9);
}

TEST(BusyProfile, EarliestGapSpansPeriods) {
  // Free [5,10) then [10,13): a 8-long window at 5 fits ([5,13)).
  const BusyProfile p({{0, 5}}, 10);
  EXPECT_EQ(p.earliest_gap(4, 8), kTimeInfinity);  // gap is only 5 per period
  EXPECT_EQ(p.earliest_gap(4, 5), 5);
}

TEST(BusyProfile, ClampsOutOfRangeIntervals) {
  const BusyProfile p({{-5, 3}, {8, 15}}, 10);
  EXPECT_EQ(p.busy_per_period(), 3 + 2);
}

/// Oracle for max_busy_in_window: the brute-force maximum of busy_between
/// over every integer window start in one period (busy_between is periodic
/// in its start, so [0, P) covers every placement).
Time brute_max_busy(const BusyProfile& p, Time w) {
  Time best = 0;
  for (Time x = 0; x < p.period(); ++x) best = std::max(best, p.busy_between(x, x + w));
  return best;
}

/// Window lengths that hit every branch of the one-pass scan: empty and
/// unit windows, sub-period windows, exactly one period, longer windows,
/// and windows that end just before, on and just after a period multiple.
std::vector<Time> probe_windows(Time period, Rng& rng) {
  std::vector<Time> ws = {0, 1, period - 1, period, period + 1};
  ws.push_back(rng.uniform_int(1, std::max<Time>(1, period - 1)));
  ws.push_back(period + rng.uniform_int(1, period));
  for (const Time k : {2, 3, 7}) {
    ws.push_back(k * period - 1);
    ws.push_back(k * period);
    ws.push_back(k * period + 1);
  }
  return ws;
}

void expect_matches_oracle(const BusyProfile& p, Rng& rng, const std::string& what) {
  for (const Time w : probe_windows(p.period(), rng)) {
    EXPECT_EQ(p.max_busy_in_window(w), brute_max_busy(p, w))
        << what << " period=" << p.period() << " w=" << w;
  }
}

TEST(BusyProfile, MaxBusyInWindowMatchesBruteForceOnRandomProfiles) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    const Time period = 20 + rng.uniform_int(0, 180);
    std::vector<Interval> intervals;
    const int n = static_cast<int>(rng.uniform_int(0, 12));
    for (int i = 0; i < n; ++i) {
      const Time start = rng.uniform_int(0, period - 1);
      const Time end = std::min(period, start + rng.uniform_int(1, period / 4 + 1));
      intervals.push_back({start, end});
    }
    expect_matches_oracle(BusyProfile(intervals, period), rng, "seed " + std::to_string(seed));
  }
}

TEST(BusyProfile, MaxBusyInWindowMatchesBruteForceOnEdgeProfiles) {
  Rng rng(99);
  const Time period = 40;
  expect_matches_oracle(BusyProfile({}, period), rng, "empty");
  expect_matches_oracle(BusyProfile({{7, 19}}, period), rng, "single interval");
  expect_matches_oracle(BusyProfile({{0, period}}, period), rng, "full period");
  expect_matches_oracle(BusyProfile({{0, 5}, {31, period}}, period), rng, "touching 0 and P");
  expect_matches_oracle(BusyProfile({{0, 1}}, period), rng, "unit at 0");
  expect_matches_oracle(BusyProfile({{period - 1, period}}, period), rng, "unit at P-1");
  expect_matches_oracle(BusyProfile({{0, 3}, {4, 9}, {12, 13}, {39, 40}}, period), rng,
                        "dense with a wrap");
  // Period 1 is the degenerate default of an unassigned profile.
  expect_matches_oracle(BusyProfile({{0, 1}}, 1), rng, "period 1, full");
}

}  // namespace
}  // namespace flexopt
