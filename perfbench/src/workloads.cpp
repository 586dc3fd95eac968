#include "workloads.hpp"

namespace perfbench {
namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// The Section 7 population of specs/fig9.campaign: the four single-bus
// topology families, mixed ST/DYN traffic.
constexpr const char* kSection7Shape =
    "traffic mixed\n"
    "node_util 0.25:0.45\n"
    "bus_util 0.10:0.40\n"
    "periods 20ms 40ms 80ms\n"
    "tasks_per_node 10\n"
    "tasks_per_graph 5\n"
    "deadline_factor 0.7\n";

// The gateway-chained population of specs/multicluster.campaign.
constexpr const char* kMulticlusterShape =
    "topology multicluster\n"
    "traffic dyn-only\n"
    "inter_share 0.25\n"
    "node_util 0.20:0.35\n"
    "bus_util 0.05:0.20\n"
    "periods 20ms 40ms 80ms\n"
    "tasks_per_node 4\n"
    "tasks_per_graph 4\n"
    "deadline_factor 2.0\n"
    "algorithms bbc portfolio\n"
    "portfolio_members 2xsa obc-cf\n"
    "budget 240\n"
    "sim_check on\n"
    "nodes 4\n";

Slice slice(const std::string& name, const std::string& body, std::uint64_t campaign_seed,
            bool seeded) {
  return {"name " + name + "\n" + body + "seed " + std::to_string(campaign_seed) + "\n",
          seeded};
}

// Every workload mixes seeded slices with fixed anchor slices of the same
// population.  A solve's time depends mostly on its system, and a round
// holds only as many systems as fit in a run, so fully seeded rounds
// differ by 10-16 % between seeds (README.md); with a quarter of the
// systems seeded the seed moves a round less, while every seed still
// brings fresh systems.

Workload fig9(std::uint64_t seed) {
  // One slice pair per algorithm, each algorithm on its own systems: four
  // independent draws per grid cell average out better than four
  // algorithms on one shared draw.  Algorithm i draws topology family i
  // from the seed and the other three from a fixed seed, so every family
  // gets seeded draws.
  Workload w{"fig9", {}};
  const char* algorithms[] = {"bbc", "obc-cf", "obc-ee", "sa"};
  const char* seeded[] = {"random-dag", "pipeline", "fan-in-out", "gateway"};
  const char* anchored[] = {"pipeline fan-in-out gateway", "random-dag fan-in-out gateway",
                            "random-dag pipeline gateway", "random-dag pipeline fan-in-out"};
  for (std::uint64_t i = 0; i < 4; ++i) {
    const std::string alg = algorithms[i];
    const std::string body = std::string(kSection7Shape) + "nodes 2 3 4 5\nreplicates 1\n" +
                             "algorithms " + alg + "\nbudget 600\n";
    w.slices.push_back(slice("fig9-" + alg, body + "topology " + seeded[i] + "\n",
                             slice_seed(seed, i), true));
    w.slices.push_back(slice("fig9-" + alg + "-anchor",
                             body + "topology " + anchored[i] + "\n", i + 1, false));
  }
  return w;
}

Workload sa_long(std::uint64_t seed) {
  // 3000-analysis SA walks: long enough that most moves leave the static
  // schedule alone (README.md has the shares).  The seeded part is the
  // Section 7 recipe (random-dag).
  Workload w{"sa-long", {}};
  const std::string body = std::string(kSection7Shape) +
                           "nodes 5 6 7\n"
                           "replicates 1\n"
                           "algorithms sa\n"
                           "budget 3000\n";
  w.slices.push_back(
      slice("sa-long", body + "topology random-dag\n", slice_seed(seed, 0), true));
  w.slices.push_back(slice("sa-long-anchor",
                           body + "topology random-dag pipeline fan-in-out gateway\n", 1,
                           false));
  return w;
}

Workload multicluster_exact(std::uint64_t seed) {
  Workload w{"multicluster-exact", {}};
  // Anchor: the scenarios of specs/multicluster.campaign (seed 7) under
  // holistic and exact analysis.  Its 3-cluster systems on 4 nodes include
  // some whose third cluster carries no traffic.  Exact solves take from
  // under a second to minutes depending on the system, so they run on the
  // anchor only.
  w.slices.push_back(slice("mc-anchor",
                           std::string(kMulticlusterShape) +
                               "clusters 2 3\nreplicates 3\nanalysis_mode holistic exact\n",
                           7, false));
  // Seeded 2-cluster draws.  Four compute nodes give each cluster two, and
  // the generator's placer alternates every cluster-local graph between
  // them, so every bus carries traffic.
  w.slices.push_back(slice("mc-seeded",
                           std::string(kMulticlusterShape) +
                               "clusters 2\nreplicates 4\nanalysis_mode holistic\n",
                           slice_seed(seed, 0), true));
  return w;
}

}  // namespace

std::uint64_t slice_seed(std::uint64_t base, std::uint64_t index) {
  return splitmix64(base ^ splitmix64(index));
}

std::optional<Workload> make_workload(std::string_view name, std::uint64_t seed) {
  if (name == "fig9") return fig9(seed);
  if (name == "sa-long") return sa_long(seed);
  if (name == "multicluster-exact") return multicluster_exact(seed);
  return std::nullopt;
}

}  // namespace perfbench
