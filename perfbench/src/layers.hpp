#pragma once

/// \file layers.hpp
/// Per-layer replay of the traced run: times individual layer entry points
/// over a replay set and returns one value per per-layer metric name.  The
/// replay set of each system is its start configuration, the winners of
/// its solves and a seeded neighbour-move trajectory from the start
/// configuration.  Times are normalised by the reference kernel.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "flexopt/flexray/params.hpp"
#include "flexopt/flexray/system_config.hpp"
#include "flexopt/model/system_model.hpp"
#include "trace.hpp"

namespace perfbench {

struct ReplaySystem {
  const flexopt::SystemModel* model = nullptr;
  /// Analysable winners of the system's solves.
  std::vector<flexopt::SystemConfig> winners;
};

struct LayerInputs {
  std::vector<ReplaySystem> systems;
  std::uint64_t seed = 1;
  /// Time the exact schedule-space backend too (multi-cluster workload).
  bool exact = false;
  /// Repeats the workload's set-up: parses every slice, expands its grid,
  /// generates and projects every system (gen layer).
  std::function<void()> regenerate;
};

/// Metric name -> value, for the layer-timing metrics of BENCHMARK.json.
std::map<std::string, double> replay_layers(const LayerInputs& inputs,
                                            const flexopt::BusParams& params, Tracer& tracer);

}  // namespace perfbench
