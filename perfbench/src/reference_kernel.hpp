#pragma once

/// \file reference_kernel.hpp
/// The fixed reference kernel the benchmark brackets measured intervals
/// with.  Neighbours on a shared host slow the solver mostly through cache
/// and memory contention; a kernel with a similar memory shape (hash-table
/// inserts plus a sort over a ~5.5 MB working set) slows by about the same
/// factor at the same moment.  Dividing an interval by the mean of the
/// kernel times measured just before and just after it, and scaling by the
/// kernel's nominal time, gives "seconds at reference speed", which repeats
/// far better than raw time (README.md has the measurements).

#include <cstddef>
#include <map>
#include <string>

namespace perfbench {

/// Kernel time on the reference machine (README.md); the scale of every
/// normalised metric.
inline constexpr double kNominalKernelSeconds = 0.030;

/// Runs the kernel once and returns its wall time in seconds.
double time_reference_kernel();

/// Bytes of the kernel's buffers, resident from its first call on.
std::size_t reference_kernel_bytes();

/// Raw interval -> seconds at reference speed, given the kernel times
/// measured just before and just after the interval.
inline double at_reference_speed(double raw_seconds, double kernel_before,
                                 double kernel_after) {
  return raw_seconds * kNominalKernelSeconds / (0.5 * (kernel_before + kernel_after));
}

/// Converts a sequence of raw intervals to seconds at reference speed.
/// The kernel runs whenever at least kGroupSeconds of raw time have
/// gathered since the last run (and on flush()), so short intervals share
/// one bracket and the kernel costs a bounded share of the run.  Kernel
/// time is never part of an interval: callers restart their interval
/// clock after add().
class ReferenceClock {
 public:
  static constexpr double kGroupSeconds = 0.5;

  ReferenceClock() : kernel_before_(time_reference_kernel()) {}

  /// Records `raw` seconds under `key`.
  void add(const std::string& key, double raw);
  /// Closes the open group.
  void flush();

  /// Seconds at reference speed recorded under `key` (closed groups only).
  [[nodiscard]] double seconds(const std::string& key) const;

 private:
  double kernel_before_;
  double group_raw_ = 0;
  std::map<std::string, double> open_;
  std::map<std::string, double> closed_;
};

}  // namespace perfbench
