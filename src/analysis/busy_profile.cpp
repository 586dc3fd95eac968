#include "flexopt/analysis/busy_profile.hpp"

#include <algorithm>
#include <cassert>

namespace flexopt {

std::vector<Interval> normalize_intervals(std::vector<Interval> intervals) {
  std::erase_if(intervals, [](const Interval& iv) { return iv.length() <= 0; });
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  std::vector<Interval> merged;
  for (const Interval& iv : intervals) {
    if (!merged.empty() && iv.start <= merged.back().end) {
      merged.back().end = std::max(merged.back().end, iv.end);
    } else {
      merged.push_back(iv);
    }
  }
  return merged;
}

BusyProfile::BusyProfile(std::vector<Interval> intervals, Time period) : period_(period) {
  assert(period > 0);
  for (Interval& iv : intervals) {
    iv.start = std::clamp<Time>(iv.start, 0, period);
    iv.end = std::clamp<Time>(iv.end, 0, period);
  }
  intervals_ = normalize_intervals(std::move(intervals));
  rebuild_derived();
}

void BusyProfile::assign_normalized(std::span<const Interval> merged, Time period) {
  assert(period > 0);
#ifndef NDEBUG
  for (std::size_t i = 0; i < merged.size(); ++i) {
    assert(merged[i].start >= 0 && merged[i].end <= period && merged[i].length() > 0);
    // Strictly separated: normalize_intervals merges adjacency too.
    assert(i == 0 || merged[i].start > merged[i - 1].end);
  }
#endif
  period_ = period;
  intervals_.assign(merged.begin(), merged.end());
  rebuild_derived();
}

void BusyProfile::rebuild_derived() {
  prefix_at_start_.clear();
  prefix_at_start_.reserve(intervals_.size());
  Time acc = 0;
  for (const Interval& iv : intervals_) {
    prefix_at_start_.push_back(acc);
    acc += iv.length();
  }
  total_busy_ = acc;
  utilisation_ = static_cast<double>(total_busy_) / static_cast<double>(period_);

  // Largest idle gap, accounting for the wrap from the last interval to the
  // first interval of the next period.
  if (intervals_.empty()) {
    largest_gap_ = period_;
  } else {
    largest_gap_ = 0;
    for (std::size_t i = 0; i + 1 < intervals_.size(); ++i) {
      largest_gap_ = std::max(largest_gap_, intervals_[i + 1].start - intervals_[i].end);
    }
    largest_gap_ = std::max(largest_gap_,
                            period_ - intervals_.back().end + intervals_.front().start);
  }
}

Time BusyProfile::prefix(Time t) const {
  assert(t >= 0 && t <= period_);
  // Find last interval starting before t.
  const auto it = std::upper_bound(
      intervals_.begin(), intervals_.end(), t,
      [](Time value, const Interval& iv) { return value < iv.start; });
  if (it == intervals_.begin()) return 0;
  const std::size_t i = static_cast<std::size_t>(it - intervals_.begin()) - 1;
  return prefix_at_start_[i] + std::min(t, intervals_[i].end) - intervals_[i].start;
}

Time BusyProfile::busy_between(Time from, Time to) const {
  assert(from >= 0 && to >= from);
  const std::int64_t from_period = from / period_;
  const std::int64_t to_period = to / period_;
  const Time from_local = from % period_;
  const Time to_local = to % period_;
  if (from_period == to_period) return prefix(to_local) - prefix(from_local);
  const std::int64_t full_periods = to_period - from_period - 1;
  return (total_busy_ - prefix(from_local)) + full_periods * total_busy_ + prefix(to_local);
}

Time BusyProfile::max_busy_in_window(Time w) const {
  if (w <= 0 || intervals_.empty()) return 0;
  // Window i is [s_i, s_i + w): its busy time is
  //   k * total + prefix(to mod P) - prefix_at_start_[i],  k = to / P.
  // With w = q * P + r (the call's one division) and s_i + r < 2P, the end
  // lies in period q or q + 1 — no division per window.  The window ends
  // rise with i, so `to mod P` increases except for at most one wrap into
  // the next period, and a single forward pointer `j` (intervals starting
  // at or before the end) replaces a binary search per window.  This is
  // the innermost loop of the FPS fixed point.
  const std::size_t n = intervals_.size();
  const std::int64_t q = w / period_;
  const Time r = w - q * period_;
  Time best = 0;
  std::size_t j = 0;
  bool wrapped = false;
  for (std::size_t i = 0; i < n; ++i) {
    Time to_local = intervals_[i].start + r;
    std::int64_t k = q;
    if (to_local >= period_) {
      to_local -= period_;
      k = q + 1;
      if (!wrapped) {
        j = 0;  // the wrap into the next period
        wrapped = true;
      }
    }
    while (j < n && intervals_[j].start <= to_local) ++j;
    Time prefix_end = 0;
    if (j > 0) {
      const Interval& iv = intervals_[j - 1];
      prefix_end = prefix_at_start_[j - 1] + std::min(to_local, iv.end) - iv.start;
    }
    best = std::max(best, k * total_busy_ + prefix_end - prefix_at_start_[i]);
  }
  return best;
}

Time BusyProfile::earliest_gap(Time from, Time len) const {
  assert(from >= 0 && len >= 0);
  if (len == 0) return from;
  if (len > largest_gap_) return kTimeInfinity;
  if (intervals_.empty()) return from;

  Time t = from;
  // At most two periods of scanning are needed: a gap of length <= largest
  // gap exists in every period, so the first fit lies within [from, from +
  // 2 * period].
  const Time limit = from + 2 * period_ + len;
  while (t <= limit) {
    const Time local = t % period_;
    const std::int64_t base = (t / period_) * period_;
    // First interval that ends after `local`: the interval that could block
    // a window starting at `local`.
    const auto it = std::upper_bound(
        intervals_.begin(), intervals_.end(), local,
        [](Time value, const Interval& iv) { return value < iv.end; });
    if (it == intervals_.end()) {
      // Idle until the end of this period; the window may spill into the
      // next period only if the next period starts idle long enough.
      const Time tail = period_ - local;
      if (tail >= len) return t;
      const Time head_needed = len - tail;
      const Time next_start = intervals_.front().start;
      if (next_start >= head_needed) return t;
      t = base + period_;  // retry at next period boundary
      continue;
    }
    if (local + len <= it->start) return t;  // fits before the blocking interval
    if (local < it->end && local >= it->start) {
      t = base + it->end;  // inside a busy interval: jump to its end
    } else {
      t = base + it->end;  // gap too small: jump past the blocking interval
    }
  }
  return kTimeInfinity;
}

}  // namespace flexopt
