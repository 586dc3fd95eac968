#pragma once

/// Reference implementation of the exact DYN schedule-space exploration,
/// kept as a test oracle for explore_dyn_schedule_space.  It is the
/// sharded engine the production one replaced, unchanged: 32 hash shards
/// walked by a fork-join worker crew, per-shard open-addressing dedup and
/// sort, and an explicit enumeration of all 2^|maybe| readiness masks per
/// state.  Its results (fallback, worst completions, explored and merged
/// states, transitions) must equal the production engine's bit for bit for
/// every option set.

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <limits>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "flexopt/analysis/exact/schedule_space.hpp"
#include "flexopt/analysis/sat_time.hpp"
#include "flexopt/flexray/bus_layout.hpp"

namespace flexopt::testing {
namespace exact_oracle_detail {

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

/// Fixed shard count, independent of the worker count: shard membership is
/// a pure function of the state key, so the merged frontier — and every
/// counter derived from it — cannot depend on the thread schedule.
constexpr std::size_t kShardBits = 5;
constexpr std::size_t kShards = std::size_t{1} << kShardBits;

/// FNV-1a over the transmitted-count words.  The top bits pick the shard,
/// the low bits probe the shard's open-addressing table, so the two uses
/// stay decorrelated.
inline std::uint64_t hash_key(const std::uint32_t* row, std::size_t width) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < width; ++i) {
    h ^= row[i];
    h *= 1099511628211ull;
  }
  return h;
}

inline std::size_t shard_of(std::uint64_t hash) { return hash >> (64 - kShardBits); }

/// Persistent fork-join crew: `run(fn)` executes fn(worker) on every worker
/// (worker 0 is the calling thread) and returns when all are done.  One
/// worker degenerates to an inline call — no threads, no synchronisation.
class WorkerCrew {
 public:
  explicit WorkerCrew(int workers) : workers_(workers) {
    threads_.reserve(static_cast<std::size_t>(workers_ > 0 ? workers_ - 1 : 0));
    for (int w = 1; w < workers_; ++w) {
      threads_.emplace_back([this, w] { thread_main(w); });
    }
  }

  WorkerCrew(const WorkerCrew&) = delete;
  WorkerCrew& operator=(const WorkerCrew&) = delete;

  ~WorkerCrew() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    start_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  [[nodiscard]] int workers() const { return workers_; }

  void run(const std::function<void(int)>& fn) {
    if (workers_ <= 1) {
      fn(0);
      return;
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      fn_ = &fn;
      remaining_ = workers_ - 1;
      ++generation_;
    }
    start_cv_.notify_all();
    fn(0);
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return remaining_ == 0; });
    fn_ = nullptr;
  }

 private:
  void thread_main(int worker) {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(int)>* fn = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        start_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        fn = fn_;
      }
      (*fn)(worker);
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (--remaining_ == 0) done_cv_.notify_one();
      }
    }
  }

  int workers_;
  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int)>* fn_ = nullptr;
  int remaining_ = 0;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

/// A partially walked bus cycle: the next FrameID slot and an index into the
/// walk pool row holding the counts accumulated on this branch.
struct Walk {
  int fid = 1;
  std::int64_t counter = 1;
  Time slot_time = 0;
  std::size_t sent_at = 0;
};

/// Per-worker exploration scratch.  Successors are staged in `out[target
/// shard]` (flat SoA rows) — the lock-free handoff to the merge phase —
/// and counters accumulate cycle-locally before the deterministic
/// (order-independent) reduction at the barrier.
struct WorkerScratch {
  std::array<std::vector<std::uint32_t>, kShards> out;
  std::vector<Time> worst;            ///< per DynMsg worst finish - release
  std::uint64_t transitions = 0;      ///< terminal walks this cycle
  std::uint64_t pending = 0;          ///< successors routed (not all-done)
  std::vector<char> must;
  std::vector<char> ready;
  std::vector<std::size_t> maybe;
  std::vector<std::size_t> tied;
  std::vector<Walk> stack;
  std::vector<std::uint32_t> pool;    ///< walk rows, stride = dyn count
};

/// One frontier shard: unique state keys as flat SoA rows (stride = dyn
/// count), kept sorted lexicographically — the deterministic (key, order)
/// tie-break every phase iterates in.
using Shard = std::vector<std::uint32_t>;

inline bool row_all_done(const std::uint32_t* row, const std::vector<DynMsg>& dyn) {
  for (std::size_t i = 0; i < dyn.size(); ++i) {
    if (row[i] < dyn[i].jobs) return false;
  }
  return true;
}

inline bool row_less(const std::uint32_t* a, const std::uint32_t* b, std::size_t width) {
  return std::lexicographical_compare(a, a + width, b, b + width);
}

/// `b` covers `a`: pointwise b <= a over distinct keys — b is at least as
/// far behind everywhere, so b's reachable finishes include a's.
inline bool row_covers(const std::uint32_t* b, const std::uint32_t* a, std::size_t width) {
  bool covers = true;
  for (std::size_t i = 0; i < width; ++i) covers &= b[i] <= a[i];
  return covers;
}

/// Drops every row covered by another row of `rows` (the dependency-free
/// form of the dominance sweep: cover chains terminate at minimal elements,
/// so "covered by anyone" equals "covered by a survivor").  Returns the
/// number of rows dropped; survivors keep their relative order.
inline std::uint64_t dominance_sweep(Shard& rows, std::size_t width) {
  const std::size_t n = rows.size() / width;
  if (n < 2) return 0;
  std::vector<char> dead(n, 0);
  for (std::size_t a = 0; a < n; ++a) {
    const std::uint32_t* ra = rows.data() + a * width;
    for (std::size_t b = 0; b < n; ++b) {
      if (a == b) continue;
      if (row_covers(rows.data() + b * width, ra, width)) {
        dead[a] = 1;
        break;
      }
    }
  }
  std::size_t write = 0;
  std::uint64_t dropped = 0;
  for (std::size_t a = 0; a < n; ++a) {
    if (dead[a] != 0) {
      ++dropped;
      continue;
    }
    if (write != a) {
      std::memmove(rows.data() + write * width, rows.data() + a * width,
                   width * sizeof(std::uint32_t));
    }
    ++write;
  }
  rows.resize(write * width);
  return dropped;
}

}  // namespace exact_oracle_detail

/// Sharded reference exploration.  Same inputs and result as
/// explore_dyn_schedule_space.
inline ScheduleSpaceResult exact_space_oracle(const BusLayout& layout,
                                             std::span<const Time> message_jitter,
                                             Time horizon, const ExactOptions& options) {
  using namespace exact_oracle_detail;
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
  const Time window = hp_result.value() * std::max(1, options.hyperperiods);

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
    d.jobs = static_cast<std::uint32_t>(window / d.period);
    dyn.push_back(d);
  }
  if (dyn.empty()) {
    result.fallback = ExactFallback::NoDynMessages;
    return result;
  }
  const std::size_t width = dyn.size();

  // Per-FrameID candidate groups in deterministic arbitration order; the
  // engine's CHI multiset orders by (priority, ready, job), so priority
  // decides between distinct ready messages and everything tied forks.
  const int max_fid = layout.max_frame_id();
  std::vector<std::vector<std::size_t>> by_fid(static_cast<std::size_t>(max_fid) + 1);
  for (std::size_t i = 0; i < width; ++i) by_fid[dyn[i].fid].push_back(i);
  for (auto& group : by_fid) {
    std::sort(group.begin(), group.end(), [&](std::size_t a, std::size_t b) {
      return std::make_pair(dyn[a].priority, dyn[a].message) <
             std::make_pair(dyn[b].priority, dyn[b].message);
    });
  }
  std::vector<std::int64_t> p_latest(static_cast<std::size_t>(max_fid) + 1, -1);
  for (int fid = 1; fid <= max_fid; ++fid) {
    NodeId owner{};
    if (layout.frame_id_owner(fid, &owner)) p_latest[fid] = layout.p_latest_tx(owner);
  }

  const Time cycle_len = layout.cycle_len();
  const Time st_len = layout.st_segment_len();
  const Time gd = layout.params().gd_minislot;
  const std::int64_t minislot_count = layout.config().minislot_count;
  const Time max_cycles = horizon / cycle_len + 1;
  // 2^k readiness subsets are enumerated through a 64-bit mask; anything
  // near that is hopeless anyway, so the branch cap is clamped well below.
  const auto max_branch =
      static_cast<std::size_t>(std::clamp(options.max_branch_messages, 1, 20));

  const int requested = options.jobs <= 0
                            ? static_cast<int>(std::thread::hardware_concurrency())
                            : options.jobs;
  const int workers = std::clamp(requested, 1, static_cast<int>(kShards));
  WorkerCrew crew(workers);

  std::array<Shard, kShards> frontier;
  std::array<Shard, kShards> next;
  {
    const std::vector<std::uint32_t> origin(width, 0);
    frontier[shard_of(hash_key(origin.data(), width))] = origin;
  }

  std::vector<WorkerScratch> scratch(static_cast<std::size_t>(workers));
  for (WorkerScratch& ws : scratch) {
    ws.worst.assign(width, 0);
    ws.must.assign(width, 0);
    ws.ready.assign(width, 0);
  }

  // Committed counters hold completed cycles only, so a mid-cycle abort
  // (branch blow-up) reports the same totals for every worker count.
  std::uint64_t transitions = 0;
  std::uint64_t merged = 0;
  Time cycle_start_ = 0;      ///< start of the cycle being expanded
  Time cycle_seg_start_ = 0;  ///< its DYN segment start
  std::atomic<bool> abort{false};
  std::atomic<std::size_t> cursor{0};
  std::array<std::uint64_t, kShards> shard_unique{};
  std::array<std::uint64_t, kShards> shard_dominated{};

  // Expansion phase: workers steal source shards off the shared cursor,
  // replay the per-state cycle walks, and stage successors per target shard.
  const auto expand = [&](int worker) {
    WorkerScratch& ws = scratch[static_cast<std::size_t>(worker)];
    ws.transitions = 0;
    ws.pending = 0;
    for (auto& bucket : ws.out) bucket.clear();
    for (std::size_t s = cursor.fetch_add(1, std::memory_order_relaxed); s < kShards;
         s = cursor.fetch_add(1, std::memory_order_relaxed)) {
      const Shard& rows = frontier[s];
      const std::size_t n_rows = rows.size() / width;
      for (std::size_t r = 0; r < n_rows; ++r) {
        if (abort.load(std::memory_order_relaxed)) return;
        const std::uint32_t* state = rows.data() + r * width;

        // Classify pending head jobs.  must: certainly in the CHI by the
        // earliest slot its FrameID can get (all earlier slots advancing by
        // one minislot); maybe: released before the cycle ends, so the
        // adversary chooses whether it arrived in time.
        ws.maybe.clear();
        for (std::size_t i = 0; i < width; ++i) {
          ws.must[i] = 0;
          if (state[i] >= dyn[i].jobs) continue;
          const Time release = static_cast<Time>(state[i]) * dyn[i].period;
          const Time earliest_slot =
              cycle_seg_start_ + static_cast<Time>(dyn[i].fid - 1) * gd;
          if (release + dyn[i].jitter <= earliest_slot) {
            ws.must[i] = 1;
          } else if (release < cycle_start_ + cycle_len) {
            ws.maybe.push_back(i);
          }
        }
        if (ws.maybe.size() > max_branch) {
          abort.store(true, std::memory_order_relaxed);
          return;
        }

        for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << ws.maybe.size());
             ++mask) {
          std::copy(ws.must.begin(), ws.must.end(), ws.ready.begin());
          for (std::size_t b = 0; b < ws.maybe.size(); ++b) {
            if ((mask >> b) & 1) ws.ready[ws.maybe[b]] = 1;
          }

          // Replay the DynSlot chain (sim/engine.cpp): one slot per FrameID,
          // stop when the FrameIDs or the minislots run out.
          ws.stack.clear();
          ws.pool.assign(state, state + width);
          ws.stack.push_back(Walk{1, 1, cycle_seg_start_, 0});
          while (!ws.stack.empty()) {
            Walk w = ws.stack.back();
            ws.stack.pop_back();
            if (w.fid > max_fid || w.counter > minislot_count) {
              ++ws.transitions;
              const std::uint32_t* sent = ws.pool.data() + w.sent_at;
              if (!row_all_done(sent, dyn)) {
                ++ws.pending;
                auto& bucket = ws.out[shard_of(hash_key(sent, width))];
                bucket.insert(bucket.end(), sent, sent + width);
              }
              continue;
            }
            ws.tied.clear();
            if (w.counter <= p_latest[static_cast<std::size_t>(w.fid)]) {
              int best_priority = 0;
              for (const std::size_t i : by_fid[static_cast<std::size_t>(w.fid)]) {
                if (ws.ready[i] == 0 || ws.pool[w.sent_at + i] >= dyn[i].jobs) continue;
                if (!ws.tied.empty() && dyn[i].priority != best_priority) break;
                best_priority = dyn[i].priority;
                ws.tied.push_back(i);
              }
            }
            if (ws.tied.empty()) {
              w.slot_time += gd;
              w.counter += 1;
              w.fid += 1;
              ws.stack.push_back(w);
              continue;
            }
            // Fork over every tied highest-priority candidate: the engine
            // breaks the tie by CHI arrival order, which the ready intervals
            // cannot resolve.
            for (const std::size_t i : ws.tied) {
              const std::size_t fork_at = ws.pool.size();
              ws.pool.resize(fork_at + width);
              std::copy_n(ws.pool.data() + w.sent_at, width, ws.pool.data() + fork_at);
              const Time finish = w.slot_time + dyn[i].occupancy;
              const Time release =
                  static_cast<Time>(ws.pool[fork_at + i]) * dyn[i].period;
              ws.worst[i] = std::max(ws.worst[i], finish - release);
              ws.pool[fork_at + i] += 1;
              Walk n = w;
              n.sent_at = fork_at;
              n.slot_time += static_cast<Time>(dyn[i].minislots) * gd;
              n.counter += dyn[i].minislots;
              n.fid += 1;
              ws.stack.push_back(n);
            }
          }
        }
      }
    }
  };

  // Merge phase: workers steal target shards; each shard dedups through an
  // open-addressing table, sorts the survivors by key, and dominance-prunes
  // shard-locally.  Shard contents are unions over worker buffers, so
  // nothing here depends on which worker produced a state.
  const auto merge = [&](int worker) {
    (void)worker;
    std::vector<std::uint32_t> slots;
    std::vector<std::size_t> order;
    for (std::size_t s = cursor.fetch_add(1, std::memory_order_relaxed); s < kShards;
         s = cursor.fetch_add(1, std::memory_order_relaxed)) {
      Shard& out = next[s];
      out.clear();
      shard_unique[s] = 0;
      shard_dominated[s] = 0;
      std::size_t candidates = 0;
      for (const WorkerScratch& ws : scratch) candidates += ws.out[s].size() / width;
      if (candidates == 0) continue;

      std::size_t table_size = 1;
      while (table_size < candidates * 2) table_size <<= 1;
      slots.assign(table_size, std::numeric_limits<std::uint32_t>::max());
      Shard unique;
      unique.reserve(candidates * width);
      std::uint32_t unique_count = 0;
      for (const WorkerScratch& ws : scratch) {
        const Shard& bucket = ws.out[s];
        for (std::size_t r = 0; r * width < bucket.size(); ++r) {
          const std::uint32_t* row = bucket.data() + r * width;
          std::size_t probe = hash_key(row, width) & (table_size - 1);
          for (;;) {
            const std::uint32_t at = slots[probe];
            if (at == std::numeric_limits<std::uint32_t>::max()) {
              slots[probe] = unique_count;
              unique.insert(unique.end(), row, row + width);
              ++unique_count;
              break;
            }
            if (std::equal(row, row + width, unique.data() + at * width)) break;
            probe = (probe + 1) & (table_size - 1);
          }
        }
      }
      shard_unique[s] = unique_count;

      // Sort by key: the deterministic (key, order) tie-break the next
      // cycle's expansion — and the final coverage scan — iterate in.
      order.resize(unique_count);
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return row_less(unique.data() + a * width, unique.data() + b * width, width);
      });
      out.resize(static_cast<std::size_t>(unique_count) * width);
      for (std::size_t i = 0; i < order.size(); ++i) {
        std::copy_n(unique.data() + order[i] * width, width, out.data() + i * width);
      }

      if (options.prune_dominated &&
          unique_count <= options.dominance_sweep_limit) {
        shard_dominated[s] = dominance_sweep(out, width);
      }
    }
  };

  for (Time cycle = 0; cycle < max_cycles; ++cycle) {
    std::uint64_t frontier_states = 0;
    for (const Shard& s : frontier) frontier_states += s.size() / width;
    if (frontier_states == 0) break;
    result.explored_states += frontier_states;
    if (result.explored_states > options.max_states) {
      result.fallback = ExactFallback::BudgetExceeded;
      result.transitions = transitions;
      result.merged_states = merged;
      return result;
    }
    cycle_start_ = cycle * cycle_len;
    cycle_seg_start_ = cycle_start_ + st_len;

    cursor.store(0, std::memory_order_relaxed);
    crew.run(expand);
    if (abort.load(std::memory_order_relaxed)) {
      result.fallback = ExactFallback::BudgetExceeded;
      result.transitions = transitions;
      result.merged_states = merged;
      return result;
    }

    cursor.store(0, std::memory_order_relaxed);
    crew.run(merge);

    // Deterministic reduction: sums and maxes over fixed index ranges.
    std::uint64_t pending = 0;
    std::uint64_t unique_total = 0;
    std::uint64_t dominated = 0;
    for (const WorkerScratch& ws : scratch) {
      transitions += ws.transitions;
      pending += ws.pending;
    }
    for (std::size_t s = 0; s < kShards; ++s) {
      unique_total += shard_unique[s];
      dominated += shard_dominated[s];
    }
    merged += pending - unique_total + dominated;

    // Small frontiers get the serial engine's cross-shard sweep: dominated
    // pairs usually hash to different shards, and when the frontier is small
    // the O(n^2) pass is cheap and prunes exactly where it matters.
    std::uint64_t survivors = 0;
    for (const Shard& s : next) survivors += s.size() / width;
    if (options.prune_dominated && survivors > 1 &&
        survivors <= options.dominance_sweep_limit) {
      Shard all;
      all.reserve(static_cast<std::size_t>(survivors) * width);
      for (const Shard& s : next) all.insert(all.end(), s.begin(), s.end());
      std::vector<char> dead(static_cast<std::size_t>(survivors), 0);
      for (std::size_t a = 0; a < survivors; ++a) {
        const std::uint32_t* ra = all.data() + a * width;
        for (std::size_t b = 0; b < survivors; ++b) {
          if (a == b) continue;
          if (row_covers(all.data() + b * width, ra, width)) {
            dead[a] = 1;
            break;
          }
        }
      }
      std::size_t at = 0;
      for (Shard& s : next) {
        std::size_t write = 0;
        const std::size_t n_rows = s.size() / width;
        for (std::size_t r = 0; r < n_rows; ++r, ++at) {
          if (dead[at] != 0) {
            ++merged;
            continue;
          }
          if (write != r) {
            std::memmove(s.data() + write * width, s.data() + r * width,
                         width * sizeof(std::uint32_t));
          }
          ++write;
        }
        s.resize(write * width);
      }
    }

    for (std::size_t s = 0; s < kShards; ++s) frontier[s].swap(next[s]);
  }
  result.transitions = transitions;
  result.merged_states = merged;

  // Publish caps.  A message is covered (refinable) only if every surviving
  // state — states that hit the cycle horizon with work left — has all of
  // its jobs transmitted; paths that completed everything were dropped from
  // the frontier and are covered by construction.
  std::vector<Time> worst(width, 0);
  for (const WorkerScratch& ws : scratch) {
    for (std::size_t i = 0; i < width; ++i) worst[i] = std::max(worst[i], ws.worst[i]);
  }
  result.worst_completion.assign(app.message_count(), kTimeInfinity);
  for (std::size_t i = 0; i < width; ++i) {
    bool covered = true;
    for (const Shard& s : frontier) {
      const std::size_t n_rows = s.size() / width;
      for (std::size_t r = 0; r < n_rows; ++r) {
        covered = covered && s[r * width + i] >= dyn[i].jobs;
      }
    }
    if (covered) result.worst_completion[dyn[i].message] = worst[i];
  }
  return result;
}

}  // namespace flexopt::testing
