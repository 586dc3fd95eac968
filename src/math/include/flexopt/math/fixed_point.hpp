#pragma once

/// \file fixed_point.hpp
/// Fixed-point iteration driver for response-time recurrences.
///
/// Both the FPS task analysis and the DYN message analysis (Eq. 3) have the
/// classic shape t_{k+1} = f(t_k), f monotone non-decreasing, starting from
/// t = 0, converging when f(t) == t or diverging past a deadline-derived
/// horizon (then the activity is unschedulable and the caller reports
/// +infinity).

#include <cstdint>

#include "flexopt/util/time.hpp"

namespace flexopt {

struct FixedPointResult {
  /// Converged value, or kTimeInfinity when the horizon was exceeded.
  Time value = kTimeInfinity;
  bool converged = false;
  /// Number of evaluations of f performed, on every exit path (convergence,
  /// horizon overrun, saturation wrap, iteration cap alike).
  int iterations = 0;
  /// True when the iteration stopped at `max_iterations` with the iterate
  /// still inside the horizon — neither converged nor proven divergent.
  bool capped = false;
};

/// Iterate t <- f(t) from t = `seed` (default 0) until convergence or
/// t > horizon.  `f` must be monotone non-decreasing for the result to be
/// the least fixed point (standard RTA argument).
///
/// `seed` accelerates convergence: for any seed with seed <= lfp(f) and
/// seed <= f(seed), the iteration converges to the same least fixed point
/// as from 0, and escapes the horizon iff the from-0 iteration does (f
/// monotone makes the seeded iterates dominate the unseeded ones
/// pointwise).  The canonical safe seed is the converged value of the same
/// recurrence against a subset of the interference — e.g. the
/// base-profile response in the list scheduler's candidate ranking.  The
/// result is the same as the unseeded run's only when neither run stops
/// at `max_iterations`: the seeded run needs fewer iterations, so it can
/// converge where the unseeded one is `capped`.
///
/// Iteration bound: let the run from 0 on f converge in k iterations to
/// v, and let g >= f pointwise (monotone too — e.g. the same recurrence
/// with more interference).  If the run on g seeded with v resolves
/// (converges or crosses the horizon) in k' iterations, then the run on g
/// from 0 resolves within k + k' iterations: its iterates dominate f's, so
/// after k - 1 steps it is at least v, and from there it dominates the
/// seeded run.  So when k + k' < max_iterations the from-0 run on g is not
/// `capped` and agrees with the seeded one, and k + k' bounds its
/// iterations for the next step of the same argument.
template <typename F>
FixedPointResult iterate_to_fixed_point(F&& f, Time horizon, int max_iterations = 10'000,
                                        Time seed = 0) {
  FixedPointResult result;
  Time t = seed;
  for (;;) {
    ++result.iterations;
    const Time next = f(t);
    if (next == t) {
      result.value = t;
      result.converged = true;
      return result;
    }
    if (next > horizon || next < t) {
      // Past the horizon (or f not monotone due to saturation): report
      // divergence; response time treated as unbounded.
      return result;
    }
    t = next;
    if (result.iterations >= max_iterations) {
      result.capped = true;
      return result;
    }
  }
}

}  // namespace flexopt
