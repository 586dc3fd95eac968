#pragma once

/// \file arena.hpp
/// Preallocated structure-of-arrays state of the holistic fixed point
/// (analyze_system_incremental_into).  Every per-task / per-message
/// quantity the fixed point touches lives in a flat array indexed by the
/// dense activity index (aid = task index for tasks, n_tasks + message
/// index for messages).  analyze_system builds a one-shot arena per call;
/// each evaluator worker thread owns one that it reuses across delta
/// evaluations, and re-binding to the same TaskStructure only clears —
/// never reallocates — so a steady-state delta evaluation performs zero
/// heap allocations (asserted by the alloc-probe test and gated by
/// bench_delta_eval).  An arena's history never changes a result: every
/// analysis resets the state it reads.

#include <cstdint>
#include <memory>
#include <vector>

#include "flexopt/analysis/dyn_analysis.hpp"
#include "flexopt/analysis/fps_analysis.hpp"
#include "flexopt/util/bitset.hpp"
#include "flexopt/util/time.hpp"

namespace flexopt {

struct TaskStructure;
class BusLayout;

struct AnalysisArena {
  /// (Re)binds the arena to a task structure.  Binding to the same
  /// structure object again is the steady state: arrays keep their
  /// capacity and only their contents are reset per evaluation.
  void bind(std::shared_ptr<const TaskStructure> s);

  /// Rebuilds the per-evaluation DYN recurrence inputs and the hp/lf
  /// interference CSR from `layout` (FrameIDs and segment geometry are
  /// decision variables, so these change per candidate; the rebuild is
  /// allocation-free at steady state).
  void prepare_dyn_geometry(const BusLayout& layout);

  std::shared_ptr<const TaskStructure> structure;

  // ---- fixed-point state over the aid space --------------------------------
  std::vector<Time> completion;  ///< per aid
  std::vector<Time> jitter;      ///< per aid
  IndexBitset dirty;             ///< "a read jitter moved" per component, per aid

  /// Release counters of the FPS kernel.
  FpsScratch fps_scratch;

  // ---- per-evaluation DYN recurrence inputs --------------------------------
  std::vector<DynPrepared> dyn_prepared;  ///< per dense DYN index
  std::vector<std::int64_t> dyn_excess;   ///< message_minislots - 1, per dense index
  /// hp(m) / lf(m) as CSR over dense DYN indices.  lf keeps EVERY
  /// lower-FrameID member — zero-excess ones still unbound the recurrence
  /// through an infinite jitter.
  std::vector<std::uint32_t> hp_begin;  ///< size n_dyn + 1
  std::vector<DynInterferer> hp_entries;
  std::vector<std::uint32_t> lf_begin;  ///< size n_dyn + 1
  std::vector<DynInterferer> lf_entries;
  DynScratch scratch;

  // ---- profiling -----------------------------------------------------------
  std::uint64_t binds = 0;   ///< full (re)binds: arrays resized
  std::uint64_t reuses = 0;  ///< steady-state rebinds: capacity reused
};

}  // namespace flexopt
