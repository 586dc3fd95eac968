#include "flexopt/analysis/exact/schedule_space.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <tuple>
#include <utility>
#include <vector>

#include "flexopt/analysis/sat_time.hpp"
#include "flexopt/flexray/bus_layout.hpp"
#include "flexopt/math/hyperperiod.hpp"

namespace flexopt {
namespace {

/// One DYN message's static exploration parameters.
struct DynMsg {
  std::uint32_t message = 0;  ///< MessageId value (index into app.messages())
  int fid = 0;
  int priority = 0;
  int minislots = 0;
  Time occupancy = 0;
  Time period = 0;
  Time jitter = 0;          ///< holistic release jitter (finite)
  std::uint32_t jobs = 0;   ///< jobs released in the exploration window
};

/// Readiness of a pending head job in the cycle being expanded.
enum class Ready : std::uint8_t { No, Must, Maybe };

/// Dominance scope above the sweep limit: the top kGroupBits of a key's
/// hash.
constexpr std::size_t kGroupBits = 5;
constexpr std::size_t kGroups = std::size_t{1} << kGroupBits;

/// FNV-1a over the transmitted-count words.
std::uint64_t key_hash(const std::uint32_t* key, std::size_t width) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < width; ++i) {
    h ^= key[i];
    h *= 1099511628211ull;
  }
  return h;
}

constexpr std::uint32_t kEmptySlot = std::numeric_limits<std::uint32_t>::max();

/// A partially walked bus cycle: the next FrameID slot, the offset of the
/// key accumulated on this branch in the walk pool, and how many maybe-ready
/// heads the branch has decided so far.
struct Walk {
  int fid = 1;
  std::int64_t counter = 1;
  Time slot_time = 0;
  std::size_t sent_at = 0;
  int decided = 0;
};

/// A transmission chosen at the current FrameID slot.
struct Fork {
  std::size_t message = 0;  ///< index into the DYN message table
  int decided = 0;
};

/// `b` covers `a`: pointwise b <= a over distinct keys — b is at least as
/// far behind everywhere, so b's reachable finishes include a's.
bool covers(const std::uint32_t* b, const std::uint32_t* a, std::size_t width) {
  bool result = true;
  for (std::size_t i = 0; i < width; ++i) result &= b[i] <= a[i];
  return result;
}

/// The exploration of one cluster.  States are flat rows of `width`
/// transmitted counts (one per DYN message, in MessageId order).
class Explorer {
 public:
  Explorer(const BusLayout& layout, std::vector<DynMsg> dyn, const ExactOptions& options)
      : dyn_(std::move(dyn)),
        width_(dyn_.size()),
        max_fid_(layout.max_frame_id()),
        fid_begin_(static_cast<std::size_t>(max_fid_) + 2, 0),
        p_latest_(static_cast<std::size_t>(max_fid_) + 1, -1),
        cycle_len_(layout.cycle_len()),
        st_len_(layout.st_segment_len()),
        gd_(layout.params().gd_minislot),
        minislot_count_(layout.config().minislot_count),
        // The walk weights a leaf by 2^(undecided maybe heads) in 64 bits;
        // anything near that is hopeless anyway, so the cap is clamped well
        // below.
        max_branch_(static_cast<std::size_t>(std::clamp(options.max_branch_messages, 1, 20))),
        options_(options),
        frontier_(width_, 0),
        ready_(width_, Ready::No),
        worst_(width_, 0) {
    // Per-FrameID candidates in deterministic arbitration order; the
    // engine's CHI multiset orders by (priority, ready, job), so priority
    // decides between distinct ready messages and everything tied forks.
    candidates_.resize(width_);
    std::iota(candidates_.begin(), candidates_.end(), std::size_t{0});
    std::sort(candidates_.begin(), candidates_.end(), [&](std::size_t a, std::size_t b) {
      return std::make_tuple(dyn_[a].fid, dyn_[a].priority, dyn_[a].message) <
             std::make_tuple(dyn_[b].fid, dyn_[b].priority, dyn_[b].message);
    });
    for (const DynMsg& d : dyn_) ++fid_begin_[static_cast<std::size_t>(d.fid) + 1];
    std::partial_sum(fid_begin_.begin(), fid_begin_.end(), fid_begin_.begin());
    for (int fid = 1; fid <= max_fid_; ++fid) {
      NodeId owner{};
      if (layout.frame_id_owner(fid, &owner)) p_latest_[fid] = layout.p_latest_tx(owner);
    }
  }

  /// Walks bus cycles until the frontier empties or `max_cycles` pass.
  void run(Time max_cycles, ScheduleSpaceResult& result) {
    // Committed counters hold completed cycles only: a mid-cycle abort
    // (branch blow-up) reports the totals of the cycles before it.
    for (Time cycle = 0; cycle < max_cycles; ++cycle) {
      const std::size_t rows = frontier_.size() / width_;
      if (rows == 0) break;
      result.explored_states += rows;
      if (result.explored_states > options_.max_states) {
        result.fallback = ExactFallback::BudgetExceeded;
        break;
      }
      const Time cycle_start = cycle * cycle_len_;
      transitions_ = 0;
      pending_ = 0;
      clear_successors();
      bool aborted = false;
      for (std::size_t r = 0; r < rows && !aborted; ++r) {
        aborted = !expand(frontier_.data() + r * width_, cycle_start);
      }
      if (aborted) {
        result.fallback = ExactFallback::BudgetExceeded;
        break;
      }
      result.transitions += transitions_;
      result.merged_states += pending_ - merge();
    }
  }

  /// Worst explored finish per DYN message, or infinity where some state
  /// left in the frontier (hit the cycle horizon) still has jobs pending;
  /// paths that completed everything were dropped from the frontier and
  /// are covered by construction.
  void publish(const Application& app, ScheduleSpaceResult& result) const {
    result.worst_completion.assign(app.message_count(), kTimeInfinity);
    for (std::size_t i = 0; i < width_; ++i) {
      bool covered = true;
      for (std::size_t at = i; at < frontier_.size(); at += width_) {
        covered = covered && frontier_[at] >= dyn_[i].jobs;
      }
      if (covered) result.worst_completion[dyn_[i].message] = worst_[i];
    }
  }

 private:
  /// Replays one bus cycle from `state`, staging every successor key.
  /// Returns false when the maybe-ready set exceeds the branch cap.
  bool expand(const std::uint32_t* state, Time cycle_start) {
    // Classify pending head jobs.  Must: certainly in the CHI by the
    // earliest slot its FrameID can get (all earlier slots advancing by one
    // minislot); maybe: released before the cycle ends, so the adversary
    // chooses whether it arrived in time.
    const Time seg_start = cycle_start + st_len_;
    std::size_t maybe = 0;
    for (std::size_t i = 0; i < width_; ++i) {
      ready_[i] = Ready::No;
      if (state[i] >= dyn_[i].jobs) continue;
      const Time release = static_cast<Time>(state[i]) * dyn_[i].period;
      const Time earliest_slot = seg_start + static_cast<Time>(dyn_[i].fid - 1) * gd_;
      if (sat_add(release, dyn_[i].jitter) <= earliest_slot) {
        ready_[i] = Ready::Must;
      } else if (release < cycle_start + cycle_len_) {
        ready_[i] = Ready::Maybe;
        ++maybe;
      }
    }
    if (maybe > max_branch_) return false;

    // Replay the DynSlot chain (sim/engine.cpp): one slot per FrameID, stop
    // when the FrameIDs or the minislots run out.  A maybe-ready head only
    // matters at its own FrameID within pLatestTx, so the walk branches on
    // its readiness there; a leaf that never decided u of the maybe heads
    // stands for the 2^u readiness subsets that all walk the same way.
    pool_.assign(state, state + width_);
    stack_.clear();
    stack_.push_back(Walk{1, 1, seg_start, 0, 0});
    while (!stack_.empty()) {
      Walk w = stack_.back();
      stack_.pop_back();
      // Follow one branch slot by slot; other branches go on the stack.
      for (;;) {
        if (w.fid > max_fid_ || w.counter > minislot_count_) {
          leaf(w, maybe);
          break;
        }
        forks_.clear();
        const bool idle =
            w.counter > p_latest_[static_cast<std::size_t>(w.fid)] || arbitrate(w);
        // Each stacked fork gets its own copy of the branch's key; without
        // an idle branch, the last fork carries on with the key in place.
        const std::size_t stacked = idle ? forks_.size() : forks_.size() - 1;
        for (std::size_t f = 0; f < stacked; ++f) {
          const std::size_t at = pool_.size();
          pool_.resize(at + width_);
          std::copy_n(pool_.data() + w.sent_at, width_, pool_.data() + at);
          stack_.push_back(transmit(w, at, forks_[f]));
        }
        if (idle) {
          w.fid += 1;
          w.counter += 1;
          w.slot_time += gd_;
        } else {
          w = transmit(w, w.sent_at, forks_.back());
        }
      }
    }
    return true;
  }

  /// The branch of `w` that transmits `fork.message` at this slot, with its
  /// key at pool offset `at` (a copy of w's key, or w's key itself).
  Walk transmit(const Walk& w, std::size_t at, const Fork& fork) {
    const std::size_t i = fork.message;
    const Time release = static_cast<Time>(pool_[at + i]) * dyn_[i].period;
    worst_[i] = std::max(worst_[i], w.slot_time + dyn_[i].occupancy - release);
    pool_[at + i] += 1;
    return Walk{w.fid + 1, w.counter + dyn_[i].minislots,
                w.slot_time + static_cast<Time>(dyn_[i].minislots) * gd_, at, fork.decided};
  }

  /// Arbitration at slot `w.fid`: the highest-priority ready heads tie and
  /// each forks (the engine breaks the tie by CHI arrival order, which the
  /// ready intervals cannot resolve).  Priority levels are visited in
  /// order, and every subset of a level's maybe-ready heads is a branch
  /// appended to `forks_`.  The all-absent branch of a level without
  /// must-ready heads falls through to the next level.  Returns true when
  /// the all-absent branch of the last level is reached, i.e. some branch
  /// idles; `w.decided` then counts the heads it decided absent.
  bool arbitrate(Walk& w) {
    const std::size_t last = fid_begin_[static_cast<std::size_t>(w.fid) + 1];
    for (std::size_t begin = fid_begin_[static_cast<std::size_t>(w.fid)]; begin < last;) {
      const int priority = dyn_[candidates_[begin]].priority;
      std::size_t end = begin;
      std::size_t level_maybe = 0;
      bool any_must = false;
      for (; end < last && dyn_[candidates_[end]].priority == priority; ++end) {
        any_must = any_must || ready_[candidates_[end]] == Ready::Must;
        level_maybe += ready_[candidates_[end]] == Ready::Maybe ? 1 : 0;
      }
      const int decided = w.decided + static_cast<int>(level_maybe);
      for (std::uint64_t mask = any_must ? 0 : 1; mask < (std::uint64_t{1} << level_maybe);
           ++mask) {
        std::size_t bit = 0;
        for (std::size_t k = begin; k < end; ++k) {
          const std::size_t i = candidates_[k];
          if (ready_[i] == Ready::Must ||
              (ready_[i] == Ready::Maybe && ((mask >> bit++) & 1) != 0)) {
            forks_.push_back(Fork{i, decided});
          }
        }
      }
      w.decided = decided;
      if (any_must) return false;
      begin = end;
    }
    return true;
  }

  /// A finished cycle walk: weighted by its undecided readiness subsets,
  /// its key is staged once unless every job is done.
  void leaf(const Walk& w, std::size_t maybe) {
    const std::uint64_t weight = std::uint64_t{1} << (maybe - static_cast<std::size_t>(w.decided));
    transitions_ += weight;
    const std::uint32_t* key = pool_.data() + w.sent_at;
    bool done = true;
    for (std::size_t i = 0; i < width_; ++i) done = done && key[i] >= dyn_[i].jobs;
    if (done) return;
    pending_ += weight;
    stage(key);
  }

  /// Appends `key` to the successor rows unless it is already there:
  /// open-addressing dedup over the key hash, kept at most half full.
  void stage(const std::uint32_t* key) {
    const std::uint64_t hash = key_hash(key, width_);
    std::size_t mask = slots_.size() - 1;
    std::size_t slot = hash & mask;
    for (; slots_[slot] != kEmptySlot; slot = (slot + 1) & mask) {
      if (std::equal(key, key + width_, successors_.data() + slots_[slot] * width_)) return;
    }
    slots_[slot] = static_cast<std::uint32_t>(hashes_.size());
    hashes_.push_back(hash);
    successors_.insert(successors_.end(), key, key + width_);
    if (2 * hashes_.size() <= slots_.size()) return;
    slots_.assign(2 * slots_.size(), kEmptySlot);
    mask = slots_.size() - 1;
    for (std::uint32_t r = 0; r < hashes_.size(); ++r) {
      std::size_t at = hashes_[r] & mask;
      while (slots_[at] != kEmptySlot) at = (at + 1) & mask;
      slots_[at] = r;
    }
  }

  /// Empties the successor rows and their dedup table.  Clearing the probe
  /// run from each row's home slot up to the next free slot reaches every
  /// slot in use.
  void clear_successors() {
    const std::size_t mask = slots_.size() - 1;
    for (const std::uint64_t hash : hashes_) {
      for (std::size_t at = hash & mask; slots_[at] != kEmptySlot; at = (at + 1) & mask) {
        slots_[at] = kEmptySlot;
      }
    }
    hashes_.clear();
    successors_.clear();
  }

  /// Drops dominated successors and makes the survivors the next
  /// frontier.  Returns the number of survivors.
  std::uint64_t merge() {
    const std::size_t n = hashes_.size();
    const std::size_t limit = options_.dominance_sweep_limit;
    if (!options_.prune_dominated || n <= limit) {
      // Common case first: a row equal to the pointwise minimum is the one
      // survivor of the sweep.
      if (const std::uint32_t* floor =
              options_.prune_dominated ? floor_row(successors_.data(), n) : nullptr) {
        frontier_.assign(floor, floor + width_);
        return 1;
      }
      frontier_.swap(successors_);
      return options_.prune_dominated ? sweep(0, n) : n;
    }

    // Above the sweep limit, each hash group within the limit is swept on
    // its own, then the survivors as a whole if they fit.  (Cover chains
    // end at minimal rows, so "covered by anyone" equals "covered by a
    // survivor" and both orders give the whole sweep's result.)  Rows are
    // bucketed by group first, in staging order within a group.
    std::array<std::size_t, kGroups + 1> group_begin{};
    for (const std::uint64_t hash : hashes_) ++group_begin[(hash >> (64 - kGroupBits)) + 1];
    std::partial_sum(group_begin.begin(), group_begin.end(), group_begin.begin());
    std::array<std::size_t, kGroups> next_row{};
    std::copy_n(group_begin.begin(), kGroups, next_row.begin());
    frontier_.resize(successors_.size());
    for (std::size_t r = 0; r < n; ++r) {
      const std::size_t at = next_row[hashes_[r] >> (64 - kGroupBits)]++;
      std::copy_n(successors_.data() + r * width_, width_, frontier_.data() + at * width_);
    }
    std::size_t kept = 0;  // the groups swept so far end here
    for (std::size_t g = 0; g < kGroups; ++g) {
      const std::size_t rows = group_begin[g + 1] - group_begin[g];
      kept = rows <= limit ? sweep(kept, kept + rows) : kept + rows;
    }
    return kept <= limit ? sweep(0, kept) : kept;
  }

  /// The first of `n` rows equal to the pointwise minimum of all of them,
  /// or nullptr.  Such a row covers every other distinct row and is
  /// covered by none, so it is all that survives a sweep.
  const std::uint32_t* floor_row(const std::uint32_t* rows, std::size_t n) {
    if (n == 0) return nullptr;
    floor_.assign(rows, rows + width_);
    for (std::size_t a = 1; a < n; ++a) {
      const std::uint32_t* key = rows + a * width_;
      for (std::size_t i = 0; i < width_; ++i) floor_[i] = std::min(floor_[i], key[i]);
    }
    for (std::size_t a = 0; a < n; ++a) {
      if (std::equal(floor_.begin(), floor_.end(), rows + a * width_)) return rows + a * width_;
    }
    return nullptr;
  }

  /// Drops every frontier row in [begin, end) covered by another row of
  /// that range (rows are distinct); survivors keep their relative order.
  /// Returns the index one past the last survivor.
  std::size_t sweep(std::size_t begin, std::size_t end) {
    if (end - begin < 2) return end;
    std::uint32_t* rows = frontier_.data();
    if (const std::uint32_t* floor = floor_row(rows + begin * width_, end - begin)) {
      std::memmove(rows + begin * width_, floor, width_ * sizeof(std::uint32_t));
      frontier_.erase(frontier_.begin() + static_cast<std::ptrdiff_t>((begin + 1) * width_),
                      frontier_.begin() + static_cast<std::ptrdiff_t>(end * width_));
      return begin + 1;
    }
    // Only a row with a lexicographically smaller key can cover another,
    // and every covered row is covered by a survivor (cover chains end at
    // rows nobody covers), so rows are tested in key order against the
    // survivors found so far.
    order_.resize(end - begin);
    std::iota(order_.begin(), order_.end(), static_cast<std::uint32_t>(begin));
    const std::size_t width = width_;
    std::sort(order_.begin(), order_.end(), [rows, width](std::uint32_t a, std::uint32_t b) {
      return std::lexicographical_compare(rows + a * width, rows + (a + 1) * width,
                                          rows + b * width, rows + (b + 1) * width);
    });
    dead_.assign(end - begin, 1);
    survivors_.clear();
    for (const std::uint32_t a : order_) {
      const std::uint32_t* ka = rows + a * width;
      const bool covered = std::any_of(survivors_.begin(), survivors_.end(), [&](std::uint32_t b) {
        return covers(rows + b * width, ka, width);
      });
      if (covered) continue;
      survivors_.push_back(a);
      dead_[a - begin] = 0;
    }
    std::size_t write = begin;
    for (std::size_t a = begin; a < end; ++a) {
      if (dead_[a - begin] != 0) continue;
      if (write != a) {
        std::memmove(rows + write * width, rows + a * width, width * sizeof(std::uint32_t));
      }
      ++write;
    }
    frontier_.erase(frontier_.begin() + static_cast<std::ptrdiff_t>(write * width),
                    frontier_.begin() + static_cast<std::ptrdiff_t>(end * width));
    return write;
  }

  const std::vector<DynMsg> dyn_;
  const std::size_t width_;
  const int max_fid_;
  /// DYN message indices by (FrameID, priority, MessageId): FrameID f's
  /// candidates, in arbitration order, are [fid_begin_[f], fid_begin_[f+1]).
  std::vector<std::size_t> candidates_;
  std::vector<std::size_t> fid_begin_;
  std::vector<std::int64_t> p_latest_;
  const Time cycle_len_;
  const Time st_len_;
  const Time gd_;
  const std::int64_t minislot_count_;
  const std::size_t max_branch_;
  const ExactOptions& options_;

  std::vector<std::uint32_t> frontier_;    ///< states of the cycle being expanded
  std::vector<std::uint32_t> successors_;  ///< distinct keys staged this cycle
  std::vector<std::uint64_t> hashes_;      ///< key hash per successor row
  std::vector<std::uint32_t> slots_ = std::vector<std::uint32_t>(16, kEmptySlot);
  std::vector<std::uint32_t> order_;
  std::vector<std::uint32_t> survivors_;
  std::vector<char> dead_;
  std::vector<std::uint32_t> floor_;
  std::vector<Ready> ready_;
  std::vector<Fork> forks_;
  std::vector<Walk> stack_;
  std::vector<std::uint32_t> pool_;  ///< walk keys of the state being expanded
  std::vector<Time> worst_;          ///< per DynMsg worst finish - release
  std::uint64_t transitions_ = 0;    ///< weighted leaves this cycle
  std::uint64_t pending_ = 0;        ///< weighted leaves with work left
};

}  // namespace

ScheduleSpaceResult explore_dyn_schedule_space(const BusLayout& layout,
                                               std::span<const Time> message_jitter,
                                               Time horizon, const ExactOptions& options) {
  ScheduleSpaceResult result;

  // Entry validation: a zero state or branch budget cannot explore anything;
  // recording it as a converged empty exploration would silently publish
  // holistic bounds as "exact".
  if (options.max_states == 0 || options.max_branch_messages <= 0) {
    result.fallback = ExactFallback::InvalidOptions;
    return result;
  }

  const Application& app = layout.application();

  const auto hp_result = app.hyperperiod();
  if (!hp_result.ok()) {
    result.fallback = ExactFallback::NotConverged;
    return result;
  }
  // A release window or job count past the representable range is an
  // option error, not something to wrap or truncate.
  const auto window = checked_mul(hp_result.value(), std::max(1, options.hyperperiods));
  if (!window.ok()) {
    result.fallback = ExactFallback::InvalidOptions;
    return result;
  }

  std::vector<DynMsg> dyn;
  for (std::uint32_t m = 0; m < app.message_count(); ++m) {
    if (app.messages()[m].cls != MessageClass::Dynamic) continue;
    DynMsg d;
    d.message = m;
    const auto id = static_cast<MessageId>(m);
    d.fid = layout.frame_id(id);
    d.priority = app.messages()[m].priority;
    d.minislots = layout.message_minislots(id);
    d.occupancy = layout.message_occupancy(id);
    d.period = app.graph(app.messages()[m].graph).period;
    d.jitter = m < message_jitter.size() ? message_jitter[m] : kTimeInfinity;
    if (is_infinite(d.jitter)) {
      result.fallback = ExactFallback::UnboundedJitter;
      return result;
    }
    const Time jobs = window.value() / d.period;
    if (jobs > std::numeric_limits<std::uint32_t>::max()) {
      result.fallback = ExactFallback::InvalidOptions;
      return result;
    }
    d.jobs = static_cast<std::uint32_t>(jobs);
    dyn.push_back(d);
  }
  if (dyn.empty()) {
    result.fallback = ExactFallback::NoDynMessages;
    return result;
  }

  Explorer explorer(layout, std::move(dyn), options);
  explorer.run(horizon / layout.cycle_len() + 1, result);
  if (result.fallback == ExactFallback::None) explorer.publish(app, result);
  return result;
}

}  // namespace flexopt
