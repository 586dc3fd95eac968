// Differential oracle lane for the list scheduler's FPS-impact placement
// (Fig. 2 line 11): build_static_schedule, which keeps each node's base FPS
// responses in a record across jobs, against oracle_build_static_schedule
// (tests/placement_oracle.hpp), which recomputes them from zero for every
// scored job.  The two must place every SCS task and ST message instance
// identically, over
//
//  * 4 topology families x 64 seeded systems of 2-7 nodes, each scheduled
//    at its minimal start configuration and after 3 random moves, with 2-6
//    placement candidates per job;
//  * hand-built near-saturated nodes — a 99.99 %-utilisation interferer
//    with a 10 us period — on which the from-zero recurrence of the
//    lower-priority tasks stops at the 10,000-iteration cap, converges just
//    below it, or converges far below it.
//
// Every path of the record must run: exact reuse and seeded refresh in
// every topology family (a refresh follows an unscored insertion, which
// the near-saturated nodes do not make), and the from-zero fallback the
// iteration-cap guard forces on the near-saturated nodes.

#include <gtest/gtest.h>

#include <iostream>
#include <string>
#include <vector>

#include "flexopt/core/config_builder.hpp"
#include "flexopt/core/sa.hpp"
#include "flexopt/gen/scenario.hpp"
#include "flexopt/util/rng.hpp"
#include "helpers.hpp"
#include "placement_oracle.hpp"

namespace flexopt {
namespace {

constexpr int kSystemsPerFamily = 64;
constexpr int kMoves = 3;

bool same(const ScheduledTask& a, const ScheduledTask& b) {
  return a.task == b.task && a.instance == b.instance && a.release == b.release &&
         a.start == b.start && a.finish == b.finish;
}

bool same(const ScheduledMessage& a, const ScheduledMessage& b) {
  return a.message == b.message && a.instance == b.instance && a.release == b.release &&
         a.cycle == b.cycle && a.slot == b.slot && a.start == b.start && a.finish == b.finish;
}

template <typename Entry>
void expect_same_entries(const std::vector<Entry>& got, const std::vector<Entry>& want,
                         const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(same(got[i], want[i])) << what << " instance entry " << i;
  }
}

/// Schedules `layout` both ways and compares every entry; returns whether
/// the scheduler succeeded (both must agree on that too).
bool check_against_oracle(const BusLayout& layout, const SchedulerOptions& options,
                          PlacementWork& work, const std::string& label,
                          int* base_cap_hits = nullptr) {
  const auto got = build_static_schedule(layout, options, &work);
  const auto want = testing::oracle_build_static_schedule(layout, options, base_cap_hits);
  EXPECT_EQ(got.ok(), want.ok()) << label;
  if (!got.ok() || !want.ok()) return false;
  const Application& app = layout.application();
  for (std::uint32_t t = 0; t < app.task_count(); ++t) {
    expect_same_entries(got.value().task_entries(static_cast<TaskId>(t)),
                        want.value().task_entries(static_cast<TaskId>(t)),
                        label + " task " + std::to_string(t));
  }
  for (std::uint32_t m = 0; m < app.message_count(); ++m) {
    expect_same_entries(got.value().message_entries(static_cast<MessageId>(m)),
                        want.value().message_entries(static_cast<MessageId>(m)),
                        label + " message " + std::to_string(m));
  }
  return true;
}

void print(const PlacementWork& work, const std::string& population) {
  std::cout << population << ": base responses reused " << work.reused << ", refreshed "
            << work.refreshed << ", first " << work.first << ", fallbacks " << work.fallbacks
            << "\n";
}

void run_family(Topology topology) {
  const BusParams params;
  Rng rng(0x91ace000u + static_cast<std::uint64_t>(topology));
  PlacementWork work;
  int scheduled = 0;
  for (int i = 0; i < kSystemsPerFamily; ++i) {
    ScenarioSpec spec;
    spec.topology = topology;
    spec.traffic = TrafficMix::Mixed;
    SyntheticSpec& base = spec.base;
    base.nodes = static_cast<int>(rng.uniform_int(2, 7));
    base.tasks_per_graph = static_cast<int>(rng.uniform_int(2, 5));
    base.tasks_per_node = base.tasks_per_graph * static_cast<int>(rng.uniform_int(1, 3));
    base.tt_share = rng.uniform_real(0.2, 0.8);
    base.node_util_min = rng.uniform_real(0.2, 0.5);
    base.node_util_max = base.node_util_min + rng.uniform_real(0.0, 0.4);
    base.deadline_factor = rng.uniform_real(0.6, 1.5);
    base.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
    SchedulerOptions options;
    options.placement_candidates = static_cast<int>(rng.uniform_int(2, 6));
    const std::string where = std::string(to_string(topology)) + " system " +
                              std::to_string(i) + " seed " + std::to_string(base.seed);

    auto app_result = generate_scenario(spec, params);
    EXPECT_TRUE(app_result.ok()) << where << ": " << app_result.error().message;
    if (!app_result.ok()) continue;
    const Application& app = app_result.value();
    const StartConfig start = minimal_start_config(app, params);
    if (!start.bounds.feasible()) continue;

    BusConfig config = start.config;
    Rng move_rng(base.seed ^ 0x5bd1e995u);
    for (int step = 0; step <= kMoves; ++step) {
      if (step > 0 && !random_neighbour_move(config, app, params, move_rng, start.st_senders,
                                             start.bounds.min_minislots,
                                             SpecLimits::kMaxMinislots)) {
        continue;
      }
      auto layout = BusLayout::build(app, params, config);
      if (!layout.ok()) continue;
      scheduled += check_against_oracle(layout.value(), options, work,
                                        where + " step " + std::to_string(step))
                       ? 1
                       : 0;
    }
  }
  print(work, to_string(topology));
  EXPECT_GE(scheduled, kSystemsPerFamily) << to_string(topology);
  EXPECT_GT(work.reused, 0u) << to_string(topology);
  EXPECT_GT(work.refreshed, 0u) << to_string(topology);
  EXPECT_GT(work.first, 0u) << to_string(topology);
}

/// Two nodes.  N0 runs `scs_tasks` independent SCS tasks of `scs_wcet`
/// (graph period `tt_period`, so H / tt_period instances each) next to FPS
/// tasks: `hp` (9,999 ns every 10 us) and lower-priority tasks of
/// `lp_wcet` each every `et_period`.  A lower-priority recurrence crawls
/// through about one hp release per iteration to w ~ 10,000 x (its wcet
/// plus the SCS and higher-priority demand), so a wcet of a few us
/// converges in thousands of iterations and one of 10 us or more stops at
/// the cap.  N1 holds one SCS task.
struct SaturatedNode {
  Application app;
  BusConfig config;

  SaturatedNode(int scs_tasks, Time scs_wcet, Time tt_period, Time et_period,
                std::vector<Time> lp_wcet) {
    const NodeId n0 = app.add_node("N0");
    const NodeId n1 = app.add_node("N1");
    const GraphId tt = app.add_graph("tt", tt_period, tt_period);
    const GraphId fast = app.add_graph("fast", timeunits::us(10), timeunits::us(10));
    const GraphId et = app.add_graph("et", et_period, et_period);
    for (int i = 0; i < scs_tasks; ++i) {
      app.add_task(tt, "scs" + std::to_string(i), n0, scs_wcet, TaskPolicy::Scs);
    }
    app.add_task(tt, "peer", n1, scs_wcet, TaskPolicy::Scs);
    app.add_task(fast, "hp", n0, 9'999, TaskPolicy::Fps, 0);
    for (std::size_t i = 0; i < lp_wcet.size(); ++i) {
      app.add_task(et, "lp" + std::to_string(i), n0, lp_wcet[i], TaskPolicy::Fps,
                   static_cast<int>(i) + 1);
    }
    auto fin = app.finalize();
    if (!fin.ok()) throw std::runtime_error(fin.error().message);
    config.static_slot_count = 1;
    config.static_slot_len = timeunits::us(5);
    config.static_slot_owner = {n0};
    config.minislot_count = 8;
  }
};

TEST(PlacementOracleProperty, RandomDagMatchesFromZeroScoring) {
  run_family(Topology::RandomDag);
}

TEST(PlacementOracleProperty, PipelineMatchesFromZeroScoring) {
  run_family(Topology::Pipeline);
}

TEST(PlacementOracleProperty, FanInFanOutMatchesFromZeroScoring) {
  run_family(Topology::FanInFanOut);
}

TEST(PlacementOracleProperty, GatewayHeavyMatchesFromZeroScoring) {
  run_family(Topology::GatewayHeavy);
}

TEST(PlacementOracleProperty, NearSaturatedNodesMatchFromZeroScoring) {
  const BusParams params;
  Rng rng(0x5a7u);
  PlacementWork work;
  int cap_hits = 0;
  for (int i = 0; i < 24; ++i) {
    const int scs_tasks = static_cast<int>(rng.uniform_int(2, 5));
    const Time scs_wcet = timeunits::ns(rng.uniform_int(200, 2'000));
    const Time tt_period = timeunits::ms(rng.uniform_int(1, 2) * 500);
    const Time et_period = timeunits::ms(1'000);
    std::vector<Time> lp;
    const int n_lp = static_cast<int>(rng.uniform_int(1, 3));
    for (int k = 0; k < n_lp; ++k) lp.push_back(timeunits::ns(rng.uniform_int(2'000, 16'000)));
    const SaturatedNode node(scs_tasks, scs_wcet, tt_period, et_period, lp);
    SchedulerOptions options;
    options.placement_candidates = static_cast<int>(rng.uniform_int(2, 6));
    const BusLayout layout = testing::make_layout(node.app, params, node.config);
    EXPECT_TRUE(check_against_oracle(layout, options, work,
                                     "saturated node " + std::to_string(i), &cap_hits));
  }
  print(work, "near-saturated nodes");
  std::cout << "near-saturated nodes: " << cap_hits << " capped from-zero base recurrences\n";
  EXPECT_GT(cap_hits, 0);
  EXPECT_GT(work.reused, 0u);
  EXPECT_GT(work.fallbacks, 0u);
}

}  // namespace
}  // namespace flexopt
