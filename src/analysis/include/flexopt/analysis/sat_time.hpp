#pragma once

/// \file sat_time.hpp
/// Saturating arithmetic on Time with kTimeInfinity as the absorbing
/// "unschedulable" element.  Holistic analysis propagates infinite response
/// times through jitters; plain + would overflow.

#include "flexopt/util/time.hpp"

namespace flexopt {

constexpr bool is_infinite(Time t) { return t == kTimeInfinity; }

constexpr Time sat_add(Time a, Time b) {
  if (is_infinite(a) || is_infinite(b)) return kTimeInfinity;
  if (a > kTimeInfinity - b) return kTimeInfinity;  // both non-negative in practice
  return a + b;
}

/// a * k for a, k >= 0, saturating at kTimeInfinity (an exact product of
/// kTimeInfinity is kTimeInfinity too).  The overflow check is the
/// compiler's multiply-with-overflow flag, not a division.
constexpr Time sat_mul(Time a, std::int64_t k) {
  Time product = 0;
  if (is_infinite(a) || __builtin_mul_overflow(a, k, &product)) return kTimeInfinity;
  return product;
}

}  // namespace flexopt
