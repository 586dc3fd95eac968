#include "reference_kernel.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <vector>

namespace perfbench {
namespace {

// Working set: a 262144-slot open-addressed table (4 MB) plus a sort
// buffer of 196608 values (1.5 MB), past the 2 MB per-core L2 of the
// reference machine, so the kernel meets the same shared-cache contention
// as the solver.  The buffers are allocated once: the kernel never touches
// the allocator, and only its first call takes page faults.
constexpr std::size_t kSlots = 262144;
constexpr std::size_t kKeys = 196608;

struct Slot {
  std::uint64_t key;
  std::uint64_t value;
};

std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

struct Buffers {
  std::vector<Slot> table = std::vector<Slot>(kSlots);
  std::vector<std::uint64_t> values = std::vector<std::uint64_t>(kKeys);
};

volatile std::uint64_t g_sink = 0;

/// One pass: 2 x kKeys inserts/updates over kKeys distinct keys with
/// linear probing, then a sort of the values.  Returns its wall time.
double kernel_pass(Buffers& b) {
  const auto start = std::chrono::steady_clock::now();
  std::memset(static_cast<void*>(b.table.data()), 0, kSlots * sizeof(Slot));
  std::uint64_t x = 1;
  for (std::size_t i = 0; i < 2 * kKeys; ++i) {
    x = mix(x);
    const std::uint64_t key = (x % kKeys) + 1;
    std::size_t s = mix(key) & (kSlots - 1);
    while (b.table[s].key != 0 && b.table[s].key != key) s = (s + 1) & (kSlots - 1);
    b.table[s].key = key;
    b.table[s].value += x;
  }
  std::size_t n = 0;
  for (const Slot& slot : b.table) {
    if (slot.key != 0) b.values[n++] = slot.value ^ slot.key;
  }
  std::sort(b.values.begin(), b.values.begin() + static_cast<std::ptrdiff_t>(n));
  g_sink = g_sink + b.values[n / 2];
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

double time_reference_kernel() {
  static Buffers b;
  // The median of three passes: one pass hit by a preemption does not
  // move the result.
  std::array<double, 3> passes{kernel_pass(b), kernel_pass(b), kernel_pass(b)};
  std::sort(passes.begin(), passes.end());
  return passes[1];
}

std::size_t reference_kernel_bytes() {
  return kSlots * sizeof(Slot) + kKeys * sizeof(std::uint64_t);
}

void ReferenceClock::add(const std::string& key, double raw) {
  open_[key] += raw;
  group_raw_ += raw;
  if (group_raw_ >= kGroupSeconds) flush();
}

void ReferenceClock::flush() {
  if (open_.empty()) return;
  const double kernel_after = time_reference_kernel();
  for (const auto& [key, raw] : open_) {
    closed_[key] += at_reference_speed(raw, kernel_before_, kernel_after);
  }
  open_.clear();
  group_raw_ = 0;
  kernel_before_ = kernel_after;
}

double ReferenceClock::seconds(const std::string& key) const {
  const auto it = closed_.find(key);
  return it == closed_.end() ? 0.0 : it->second;
}

}  // namespace perfbench
