#pragma once

/// \file workloads.hpp
/// The benchmark's workloads as campaign-spec texts made from a seed.  A
/// workload is a list of slices; each slice is one campaign the timed run
/// hands to the campaign layer, so every input the program sees is a spec
/// it parses itself.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Slice {
  std::string spec_text;
  /// False for a fixed anchor slice, whose scenarios do not depend on the
  /// seed; only an anchor may hold systems with a traffic-less cluster.
  bool seeded = true;
};

struct Workload {
  std::string name;
  std::vector<Slice> slices;
};

/// The workload `name` for `seed`; nullopt for an unknown name.
[[nodiscard]] std::optional<Workload> make_workload(std::string_view name, std::uint64_t seed);

/// splitmix64 of base ^ splitmix64(index): per-slice campaign seeds.
[[nodiscard]] std::uint64_t slice_seed(std::uint64_t base, std::uint64_t index);

}  // namespace perfbench
