// FPS response-time analysis under SCS interference: classic RTA cases
// plus the availability-window extension, on the prepared kernel.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "flexopt/analysis/fps_analysis.hpp"
#include "placement_oracle.hpp"

namespace flexopt {
namespace {

using testing::ReferenceFpsTask;

constexpr Time kHorizon = timeunits::ms(10);

/// The kernel's answer for `task` competing with `group` (an entry of
/// `group` with task's id is replaced by `task`); jitters come from the
/// parameters.
FpsResponse respond(const ReferenceFpsTask& task, std::span<const ReferenceFpsTask> group,
                    const BusyProfile& scs, Time horizon, Time seed = 0,
                    int max_iterations = kFpsIterationCap) {
  std::vector<ReferenceFpsTask> node(group.begin(), group.end());
  const auto self = std::find_if(node.begin(), node.end(),
                                 [&](const ReferenceFpsTask& p) { return p.id == task.id; });
  if (self != node.end()) {
    *self = task;
  } else {
    node.push_back(task);
  }
  FpsTaskSet set;
  set.add_node(testing::kernel_params(node));
  std::vector<Time> jitter(node.size() + 8, 0);
  for (const ReferenceFpsTask& p : node) jitter[index_of(p.id)] = p.jitter;
  const auto prepared = std::find_if(set.tasks.begin(), set.tasks.end(), [&](const FpsTask& p) {
    return p.task == static_cast<std::uint32_t>(index_of(task.id));
  });
  FpsScratch scratch;
  return fps_response_time(*prepared, set.interferers_of(*prepared), jitter, scs, horizon, scratch,
                           seed, max_iterations);
}

Time response_of(const ReferenceFpsTask& task, std::span<const ReferenceFpsTask> group,
                 const BusyProfile& scs, Time horizon) {
  return respond(task, group, scs, horizon).response;
}

TEST(FpsAnalysis, SingleTaskNoInterference) {
  const BusyProfile idle({}, timeunits::us(100));
  const ReferenceFpsTask t{TaskId{0}, timeunits::us(10), timeunits::us(100), 0, 1};
  EXPECT_EQ(response_of(t, {}, idle, kHorizon), timeunits::us(10));
}

TEST(FpsAnalysis, ClassicTwoTaskPreemption) {
  // hp task: C=2, T=10; own: C=5 -> w = 5 + 2*ceil(w/10): w=7 -> check 5+2=7.
  const BusyProfile idle({}, timeunits::us(100));
  const std::array<ReferenceFpsTask, 2> tasks{
      ReferenceFpsTask{TaskId{0}, timeunits::us(2), timeunits::us(10), 0, 0},
      ReferenceFpsTask{TaskId{1}, timeunits::us(5), timeunits::us(100), 0, 1},
  };
  EXPECT_EQ(response_of(tasks[1], tasks, idle, kHorizon), timeunits::us(7));
  // The high-priority task is unaffected by the lower one.
  EXPECT_EQ(response_of(tasks[0], tasks, idle, kHorizon), timeunits::us(2));
}

TEST(FpsAnalysis, JitterIncreasesInterferenceAndResponse) {
  const BusyProfile idle({}, timeunits::us(100));
  const std::array<ReferenceFpsTask, 2> tasks{
      ReferenceFpsTask{TaskId{0}, timeunits::us(2), timeunits::us(10), timeunits::us(9), 0},
      ReferenceFpsTask{TaskId{1}, timeunits::us(5), timeunits::us(100), 0, 1},
  };
  // w = 5 + 2*ceil((w+9)/10): w=0->5? iterate: 5->2*ceil(14/10)=4 ->9; 9->2*ceil(18/10)=4 ->9.
  EXPECT_EQ(response_of(tasks[1], tasks, idle, kHorizon), timeunits::us(9));
  // Own jitter shifts the response additively.
  const ReferenceFpsTask jittered{TaskId{1}, timeunits::us(5), timeunits::us(100),
                               timeunits::us(3), 1};
  EXPECT_EQ(response_of(jittered, tasks, idle, kHorizon), timeunits::us(12));
}

TEST(FpsAnalysis, ScsBusyWindowsDelayFpsTasks) {
  // SCS busy [0, 40) per 100us period; FPS task C=30 can only run in the
  // 60us of slack: w = 30 + S(w); S(70) = 40 -> w = 70.
  const BusyProfile scs({{0, timeunits::us(40)}}, timeunits::us(100));
  const ReferenceFpsTask t{TaskId{0}, timeunits::us(30), timeunits::us(100), 0, 1};
  EXPECT_EQ(response_of(t, {}, scs, kHorizon), timeunits::us(70));
}

TEST(FpsAnalysis, UnschedulableDivergesToInfinity) {
  const BusyProfile idle({}, timeunits::us(100));
  // 100% utilisation by the hp task leaves nothing: diverges.
  const std::array<ReferenceFpsTask, 2> tasks{
      ReferenceFpsTask{TaskId{0}, timeunits::us(10), timeunits::us(10), 0, 0},
      ReferenceFpsTask{TaskId{1}, timeunits::us(5), timeunits::us(100), 0, 1},
  };
  EXPECT_EQ(response_of(tasks[1], tasks, idle, kHorizon), kTimeInfinity);
}

TEST(FpsAnalysis, InfiniteJitterPropagates) {
  const BusyProfile idle({}, timeunits::us(100));
  const std::array<ReferenceFpsTask, 2> tasks{
      ReferenceFpsTask{TaskId{0}, timeunits::us(2), timeunits::us(10), kTimeInfinity, 0},
      ReferenceFpsTask{TaskId{1}, timeunits::us(5), timeunits::us(100), 0, 1},
  };
  EXPECT_EQ(response_of(tasks[1], tasks, idle, kHorizon), kTimeInfinity);
  const ReferenceFpsTask own_inf{TaskId{2}, timeunits::us(5), timeunits::us(100),
                              kTimeInfinity, 2};
  EXPECT_EQ(response_of(own_inf, {}, idle, kHorizon), kTimeInfinity);
}

TEST(FpsAnalysis, EqualPrioritiesMutuallyInterfere) {
  const BusyProfile idle({}, timeunits::us(100));
  const std::array<ReferenceFpsTask, 2> tasks{
      ReferenceFpsTask{TaskId{0}, timeunits::us(3), timeunits::us(50), 0, 1},
      ReferenceFpsTask{TaskId{1}, timeunits::us(4), timeunits::us(50), 0, 1},
  };
  EXPECT_EQ(response_of(tasks[0], tasks, idle, kHorizon), timeunits::us(7));
  EXPECT_EQ(response_of(tasks[1], tasks, idle, kHorizon), timeunits::us(7));
}

TEST(FpsAnalysis, ReportsHowTheRecurrenceStopped) {
  const BusyProfile idle({}, timeunits::us(100));
  const std::array<ReferenceFpsTask, 2> tasks{
      ReferenceFpsTask{TaskId{0}, timeunits::us(2), timeunits::us(10), 0, 0},
      ReferenceFpsTask{TaskId{1}, timeunits::us(5), timeunits::us(100), 0, 1},
  };
  // w: 0 -> 5 -> 7 -> 7: three evaluations of the body.
  const FpsResponse converged = respond(tasks[1], tasks, idle, kHorizon);
  EXPECT_EQ(converged.stop, FpsStop::Converged);
  EXPECT_EQ(converged.response, timeunits::us(7));
  EXPECT_EQ(converged.iterations, 3);
  // Seeded with the answer, one evaluation confirms it.
  const FpsResponse seeded = respond(tasks[1], tasks, idle, kHorizon, timeunits::us(7));
  EXPECT_EQ(seeded.response, timeunits::us(7));
  EXPECT_EQ(seeded.iterations, 1);
  // A one-iteration budget stops the from-zero run inside the horizon.
  const FpsResponse capped = respond(tasks[1], tasks, idle, kHorizon, 0, 1);
  EXPECT_EQ(capped.stop, FpsStop::Capped);
  EXPECT_EQ(capped.response, kTimeInfinity);
  // A horizon below the answer.
  const FpsResponse past = respond(tasks[1], tasks, idle, timeunits::us(6));
  EXPECT_EQ(past.stop, FpsStop::Unbounded);
  EXPECT_EQ(past.response, kTimeInfinity);
  // Load above 1: no iteration at all.
  const std::array<ReferenceFpsTask, 2> overloaded{
      ReferenceFpsTask{TaskId{0}, timeunits::us(10), timeunits::us(10), 0, 0},
      ReferenceFpsTask{TaskId{1}, timeunits::us(5), timeunits::us(100), 0, 1},
  };
  const FpsResponse over = respond(overloaded[1], overloaded, idle, kHorizon);
  EXPECT_EQ(over.stop, FpsStop::Unbounded);
  EXPECT_EQ(over.iterations, 0);
}

TEST(FpsAnalysis, PreparedInterferersAreTheHigherAndEqualPriorityPeers) {
  const std::array<ReferenceFpsTask, 4> group{
      ReferenceFpsTask{TaskId{3}, 1, 10, 0, 2},
      ReferenceFpsTask{TaskId{5}, 2, 20, 0, 1},
      ReferenceFpsTask{TaskId{7}, 3, 40, 0, 2},
      ReferenceFpsTask{TaskId{8}, 4, 80, 0, 3},
  };
  FpsTaskSet set;
  set.add_node({});
  set.add_node(testing::kernel_params(group));
  ASSERT_EQ(set.node(0).size(), 0u);
  ASSERT_EQ(set.node(1).size(), 4u);
  const auto ids = [&](const FpsTask& t) {
    std::vector<std::uint32_t> out;
    for (const FpsInterferer& j : set.interferers_of(t)) out.push_back(j.task);
    return out;
  };
  EXPECT_EQ(ids(set.node(1)[0]), (std::vector<std::uint32_t>{5, 7}));
  EXPECT_EQ(ids(set.node(1)[1]), (std::vector<std::uint32_t>{}));
  EXPECT_EQ(ids(set.node(1)[2]), (std::vector<std::uint32_t>{3, 5}));
  EXPECT_EQ(ids(set.node(1)[3]), (std::vector<std::uint32_t>{3, 5, 7}));
  EXPECT_DOUBLE_EQ(set.node(1)[3].utilisation, 4.0 / 80.0);
}

}  // namespace
}  // namespace flexopt
