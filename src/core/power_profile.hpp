#pragma once

#include <span>
#include <vector>

#include "util/types.hpp"

/// \file power_profile.hpp
/// The time-varying green power supply (Section 3).
///
/// The horizon [0, T) is divided into J contiguous intervals
/// I_j = [b_j, e_j); within I_j a constant green power budget G_j is
/// available per time unit. Power drawn beyond the budget is brown and
/// incurs carbon cost.

namespace cawo {

struct Interval {
  Time begin = 0;
  Time end = 0;   ///< exclusive
  Power green = 0;

  Time length() const { return end - begin; }
  bool operator==(const Interval&) const = default;
};

class PowerProfile {
public:
  PowerProfile() = default;

  /// Append an interval of the given length and budget at the end of the
  /// current horizon.
  void appendInterval(Time length, Power green);

  /// A single interval covering [0, horizon) with a constant budget.
  static PowerProfile uniform(Time horizon, Power green);

  /// Build directly from a list of contiguous intervals.
  static PowerProfile fromIntervals(std::vector<Interval> intervals);

  Time horizon() const {
    return intervals_.empty() ? 0 : intervals_.back().end;
  }

  std::size_t numIntervals() const { return intervals_.size(); }

  std::span<const Interval> intervals() const { return intervals_; }

  const Interval& interval(std::size_t j) const;

  /// Index of the interval containing time `t` (binary search, O(log J)).
  std::size_t indexAt(Time t) const;

  /// Green budget at time `t`.
  Power greenAt(Time t) const;

  /// The set E of interval boundary times {b_1=0, e_1, ..., e_J=T}.
  std::vector<Time> boundaries() const;

  /// Extend the horizon to `newHorizon` by appending one interval with
  /// budget `green` (no-op if the horizon is already long enough).
  void extendTo(Time newHorizon, Power green);

  /// Sum over the horizon of `max(basePower - G(t), 0)` — the carbon cost
  /// that accrues even when no task runs (all processors idle).
  Cost idleFloorCost(Power basePower) const;

private:
  std::vector<Interval> intervals_;
};

} // namespace cawo
