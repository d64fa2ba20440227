#pragma once

// Test oracle: the historical `std::map<Time, Segment>`-backed power
// timeline, retained as the property-test oracle for the flat
// array-backed `PowerTimeline`. Every cost is an exact 64-bit integer, so
// over any trace of operations the two must agree bit-for-bit: on
// `totalCost`, on the flat batched `peekMoveDeltas` against this scalar
// `peekMoveDelta`, and on the delta of every flat `applyMove` against
// this `moveDelta` — the randomized trace-equivalence test in
// tests/test_power_timeline.cpp pins exactly that. Not used by any solver.

#include <algorithm>
#include <iterator>
#include <map>

#include "core/power_profile.hpp"
#include "util/require.hpp"
#include "util/types.hpp"

namespace cawo::oracle {

class MapPowerTimeline {
public:
  MapPowerTimeline(const PowerProfile& profile, Power basePower);

  void addLoad(Time a, Time b, Power work);
  void removeLoad(Time a, Time b, Power work);

  Cost totalCost() const { return total_; }

  /// Mutate-and-revert probe (the historical `moveDelta`): leaves the
  /// totals unchanged but permanently accumulates split boundaries — the
  /// residue leak the flat implementation fixes.
  Cost moveDelta(Time a, Time b, Time a2, Time b2, Power work);

  /// Read-only probe over the affected segment pieces.
  Cost peekMoveDelta(Time a, Time b, Time a2, Time b2, Power work) const;

  Time horizon() const { return horizon_; }
  std::size_t numSegments() const { return segments_.size(); }

private:
  struct Segment {
    Power active = 0;
    Power green = 0;
  };

  using SegMap = std::map<Time, Segment>;

  void splitAt(Time t);
  Cost segmentCost(SegMap::const_iterator it) const;

  SegMap segments_; // key = segment begin; a sentinel at `horizon_` ends it
  Power base_ = 0;
  Time horizon_ = 0;
  Cost total_ = 0;
};

inline MapPowerTimeline::MapPowerTimeline(const PowerProfile& profile,
                                          Power basePower)
    : base_(basePower), horizon_(profile.horizon()) {
  CAWO_REQUIRE(basePower >= 0, "negative base power");
  CAWO_REQUIRE(horizon_ > 0, "profile has an empty horizon");
  for (const Interval& iv : profile.intervals())
    segments_.emplace(iv.begin, Segment{0, iv.green});
  segments_.emplace(horizon_, Segment{0, 0}); // sentinel, never costed
  for (auto it = segments_.begin(); std::next(it) != segments_.end(); ++it)
    total_ += segmentCost(it);
}

inline Cost MapPowerTimeline::segmentCost(SegMap::const_iterator it) const {
  const auto next = std::next(it);
  const Time len = next->first - it->first;
  const Power over = base_ + it->second.active - it->second.green;
  return over > 0 ? static_cast<Cost>(over) * len : 0;
}

inline void MapPowerTimeline::splitAt(Time t) {
  if (t <= 0 || t >= horizon_) return;
  auto it = segments_.lower_bound(t);
  if (it != segments_.end() && it->first == t) return;
  --it; // segment containing t
  segments_.emplace_hint(std::next(it), t, it->second);
  // The two halves carry the same power values, so total_ is unchanged.
}

inline void MapPowerTimeline::addLoad(Time a, Time b, Power work) {
  if (a >= b || work == 0) return;
  CAWO_REQUIRE(a >= 0 && b <= horizon_, "load outside horizon");
  splitAt(a);
  splitAt(b);
  for (auto it = segments_.lower_bound(a);
       it != segments_.end() && it->first < b; ++it) {
    total_ -= segmentCost(it);
    it->second.active += work;
    total_ += segmentCost(it);
  }
}

inline void MapPowerTimeline::removeLoad(Time a, Time b, Power work) {
  addLoad(a, b, -work);
}

inline Cost MapPowerTimeline::peekMoveDelta(Time a, Time b, Time a2,
                                            Time b2, Power work) const {
  const bool hasOld = a < b;
  const bool hasNew = a2 < b2;
  if (work == 0 || (!hasOld && !hasNew) ||
      (hasOld && hasNew && a == a2 && b == b2))
    return 0;
  Time lo = hasOld ? a : a2;
  Time hi = hasOld ? b : b2;
  if (hasNew) {
    lo = std::min(lo, a2);
    hi = std::max(hi, b2);
  }
  CAWO_REQUIRE(lo >= 0 && hi <= horizon_, "load outside horizon");

  Cost delta = 0;
  auto it = segments_.upper_bound(lo);
  --it; // segment containing lo
  for (; it != segments_.end() && it->first < hi; ++it) {
    const Time segLo = std::max(lo, it->first);
    const Time segHi = std::min(hi, std::next(it)->first);
    const Power over = base_ + it->second.active - it->second.green;
    Time cuts[6] = {segLo, segHi};
    int numCuts = 2;
    for (const Time t : {a, b, a2, b2})
      if (t > segLo && t < segHi) cuts[numCuts++] = t;
    for (int k = 2; k < numCuts; ++k) { // insertion sort: ≤ 6 elements
      const Time t = cuts[k];
      int j = k - 1;
      while (j >= 0 && cuts[j] > t) {
        cuts[j + 1] = cuts[j];
        --j;
      }
      cuts[j + 1] = t;
    }
    for (int k = 0; k + 1 < numCuts; ++k) {
      const Time pieceLo = cuts[k];
      const Time pieceHi = cuts[k + 1];
      if (pieceLo >= pieceHi) continue; // duplicate cut
      Power change = 0;
      if (hasOld && pieceLo >= a && pieceLo < b) change -= work;
      if (hasNew && pieceLo >= a2 && pieceLo < b2) change += work;
      if (change == 0) continue;
      const Power moved = over + change;
      const Time len = pieceHi - pieceLo;
      if (over > 0) delta -= static_cast<Cost>(over) * len;
      if (moved > 0) delta += static_cast<Cost>(moved) * len;
    }
  }
  return delta;
}

inline Cost MapPowerTimeline::moveDelta(Time a, Time b, Time a2, Time b2,
                                        Power work) {
  const Cost before = total_;
  removeLoad(a, b, work);
  addLoad(a2, b2, work);
  const Cost after = total_;
  // Revert: integer arithmetic makes this exact.
  removeLoad(a2, b2, work);
  addLoad(a, b, work);
  CAWO_ASSERT(total_ == before, "MapPowerTimeline revert failed");
  return after - before;
}

} // namespace cawo::oracle
