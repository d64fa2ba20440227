#pragma once

// Test oracle: the pseudo-polynomial carbon cost of Section 3, summed over
// individual time units (O(T + N)). The library's sweep-line
// `evaluateCost` must agree with it exactly on every complete schedule
// inside the profile horizon.

#include <cstddef>
#include <vector>

#include "core/enhanced_graph.hpp"
#include "core/power_profile.hpp"
#include "core/schedule.hpp"
#include "util/require.hpp"
#include "util/types.hpp"

namespace cawo::oracle {

inline Cost evaluateCostReference(const EnhancedGraph& gc,
                                  const PowerProfile& profile,
                                  const Schedule& s) {
  const Time horizon = profile.horizon();
  std::vector<Power> power(static_cast<std::size_t>(horizon),
                           gc.totalIdlePower());
  for (TaskId u = 0; u < gc.numNodes(); ++u) {
    CAWO_REQUIRE(s.isSet(u), "schedule is incomplete");
    const Power w = gc.workPower(gc.procOf(u));
    const Time a = s.start(u);
    const Time b = s.end(u, gc);
    CAWO_REQUIRE(a >= 0 && b <= horizon, "schedule outside horizon");
    for (Time t = a; t < b; ++t) power[static_cast<std::size_t>(t)] += w;
  }
  Cost total = 0;
  for (Time t = 0; t < horizon; ++t) {
    const Power over = power[static_cast<std::size_t>(t)] - profile.greenAt(t);
    if (over > 0) total += over;
  }
  return total;
}

} // namespace cawo::oracle
