#include "core/carbon_cost.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace cawo {

namespace {

/// Sorted unique breakpoints: all interval boundaries plus all task start
/// and end events, restricted to [0, end of schedule/profile].
struct SweepData {
  std::vector<Time> breakpoints;
  std::vector<std::pair<Time, Power>> deltas; // (time, +/- work power)
};

SweepData prepareSweep(const EnhancedGraph& gc, const PowerProfile& profile,
                       const Schedule& s) {
  SweepData data;
  data.breakpoints.reserve(profile.numIntervals() + 1 +
                           2 * static_cast<std::size_t>(gc.numNodes()));
  for (Time b : profile.boundaries()) data.breakpoints.push_back(b);

  data.deltas.reserve(2 * static_cast<std::size_t>(gc.numNodes()));
  for (TaskId u = 0; u < gc.numNodes(); ++u) {
    CAWO_REQUIRE(s.isSet(u), "schedule is incomplete");
    if (gc.len(u) == 0) continue; // zero-length nodes draw no power
    const Time a = s.start(u);
    const Time b = s.end(u, gc);
    CAWO_REQUIRE(a >= 0, "negative start time");
    CAWO_REQUIRE(b <= profile.horizon(),
                 "schedule exceeds the profile horizon");
    const Power w = gc.workPower(gc.procOf(u));
    data.deltas.emplace_back(a, w);
    data.deltas.emplace_back(b, -w);
    data.breakpoints.push_back(a);
    data.breakpoints.push_back(b);
  }
  std::sort(data.breakpoints.begin(), data.breakpoints.end());
  data.breakpoints.erase(
      std::unique(data.breakpoints.begin(), data.breakpoints.end()),
      data.breakpoints.end());
  std::sort(data.deltas.begin(), data.deltas.end());
  return data;
}

/// Sweep over explicit (start, duration) events against `profile`,
/// restricted to [0, upTo). Nodes without a start are skipped (partial
/// trajectories); contributions past the profile horizon are billed with a
/// green budget of 0. The breakpoint/delta machinery is the same as
/// `prepareSweep`, so complete in-horizon trajectories with
/// durations == ω(u) cost exactly what `evaluateCost` reports.
Cost sweepWithDurations(const EnhancedGraph& gc, const PowerProfile& profile,
                        const Schedule& s, const std::vector<Time>& durations,
                        Time upTo, bool requireComplete) {
  CAWO_REQUIRE(durations.size() ==
                   static_cast<std::size_t>(gc.numNodes()),
               "durations vector does not match the graph");
  if (upTo <= 0) return 0;

  SweepData data;
  data.breakpoints.reserve(profile.numIntervals() + 2 +
                           2 * static_cast<std::size_t>(gc.numNodes()));
  for (const Time b : profile.boundaries())
    if (b <= upTo) data.breakpoints.push_back(b);
  data.breakpoints.push_back(0);
  data.breakpoints.push_back(upTo);

  data.deltas.reserve(2 * static_cast<std::size_t>(gc.numNodes()));
  for (TaskId u = 0; u < gc.numNodes(); ++u) {
    if (!s.isSet(u)) {
      CAWO_REQUIRE(!requireComplete, "schedule is incomplete");
      continue;
    }
    const Time d = durations[static_cast<std::size_t>(u)];
    CAWO_REQUIRE(d >= 0, "negative duration");
    if (d == 0) continue; // zero-length nodes draw no power
    const Time a = s.start(u);
    CAWO_REQUIRE(a >= 0, "negative start time");
    const Time b = std::min(a + d, upTo);
    if (a >= b) continue; // entirely past the window
    const Power w = gc.workPower(gc.procOf(u));
    data.deltas.emplace_back(a, w);
    data.deltas.emplace_back(b, -w);
    data.breakpoints.push_back(a);
    data.breakpoints.push_back(b);
  }
  std::sort(data.breakpoints.begin(), data.breakpoints.end());
  data.breakpoints.erase(
      std::unique(data.breakpoints.begin(), data.breakpoints.end()),
      data.breakpoints.end());
  std::sort(data.deltas.begin(), data.deltas.end());

  const Power base = gc.totalIdlePower();
  const Time horizon = profile.horizon();
  Cost total = 0;
  Power active = 0;
  std::size_t di = 0;
  std::size_t interval = 0;
  const auto intervals = profile.intervals();

  for (std::size_t k = 0; k + 1 < data.breakpoints.size(); ++k) {
    const Time t0 = data.breakpoints[k];
    const Time t1 = data.breakpoints[k + 1];
    while (di < data.deltas.size() && data.deltas[di].first <= t0)
      active += data.deltas[di++].second;
    while (interval + 1 < intervals.size() && intervals[interval].end <= t0)
      ++interval;
    const Power green = t0 >= horizon ? 0 : intervals[interval].green;
    const Power over = base + active - green;
    if (over > 0) total += static_cast<Cost>(over) * (t1 - t0);
  }
  return total;
}

} // namespace

Cost evaluateCost(const EnhancedGraph& gc, const PowerProfile& profile,
                  const Schedule& s) {
  const SweepData data = prepareSweep(gc, profile, s);
  const Power base = gc.totalIdlePower();

  Cost total = 0;
  Power active = 0;
  std::size_t di = 0;
  std::size_t interval = 0;
  const auto intervals = profile.intervals();

  for (std::size_t k = 0; k + 1 < data.breakpoints.size(); ++k) {
    const Time t0 = data.breakpoints[k];
    const Time t1 = data.breakpoints[k + 1];
    while (di < data.deltas.size() && data.deltas[di].first <= t0)
      active += data.deltas[di++].second;
    while (interval + 1 < intervals.size() && intervals[interval].end <= t0)
      ++interval;
    const Power over = base + active - intervals[interval].green;
    if (over > 0) total += static_cast<Cost>(over) * (t1 - t0);
  }
  return total;
}

Cost evaluateCostWithDurations(const EnhancedGraph& gc,
                               const PowerProfile& profile, const Schedule& s,
                               const std::vector<Time>& durations) {
  // Bill through the later of the profile horizon (idle floor) and the
  // trajectory's last completion (overshoot is all brown).
  Time upTo = profile.horizon();
  for (TaskId u = 0; u < gc.numNodes(); ++u) {
    CAWO_REQUIRE(s.isSet(u), "schedule is incomplete");
    upTo = std::max(upTo, s.start(u) + durations[static_cast<std::size_t>(u)]);
  }
  return sweepWithDurations(gc, profile, s, durations, upTo,
                            /*requireComplete=*/true);
}

Cost evaluateCostPrefix(const EnhancedGraph& gc, const PowerProfile& profile,
                        const Schedule& s, const std::vector<Time>& durations,
                        Time upTo) {
  return sweepWithDurations(gc, profile, s, durations, upTo,
                            /*requireComplete=*/false);
}

Cost carbonLowerBound(const EnhancedGraph& gc, const PowerProfile& profile) {
  const Cost idleFloor = profile.idleFloorCost(gc.totalIdlePower());

  Cost totalDemand =
      static_cast<Cost>(gc.totalIdlePower()) * profile.horizon();
  for (TaskId u = 0; u < gc.numNodes(); ++u)
    totalDemand += static_cast<Cost>(gc.workPower(gc.procOf(u))) * gc.len(u);
  Cost totalGreen = 0;
  for (const Interval& interval : profile.intervals())
    totalGreen += static_cast<Cost>(interval.green) * interval.length();

  const Cost balance = totalDemand > totalGreen ? totalDemand - totalGreen : 0;
  return std::max(idleFloor, balance);
}

CostBreakdown evaluateCostBreakdown(const EnhancedGraph& gc,
                                    const PowerProfile& profile,
                                    const Schedule& s) {
  const SweepData data = prepareSweep(gc, profile, s);
  const Power base = gc.totalIdlePower();

  CostBreakdown out;
  out.perInterval.assign(profile.numIntervals(), 0);
  Power active = 0;
  std::size_t di = 0;
  std::size_t interval = 0;
  const auto intervals = profile.intervals();

  for (std::size_t k = 0; k + 1 < data.breakpoints.size(); ++k) {
    const Time t0 = data.breakpoints[k];
    const Time t1 = data.breakpoints[k + 1];
    while (di < data.deltas.size() && data.deltas[di].first <= t0)
      active += data.deltas[di++].second;
    while (interval + 1 < intervals.size() && intervals[interval].end <= t0)
      ++interval;
    const Power total = base + active;
    out.peakPower = std::max(out.peakPower, total);
    const Power green = intervals[interval].green;
    const Time span = t1 - t0;
    const Power over = total - green;
    if (over > 0) {
      out.perInterval[interval] += static_cast<Cost>(over) * span;
      out.total += static_cast<Cost>(over) * span;
      out.brownEnergyUsed += static_cast<Cost>(over) * span;
      out.greenEnergyUsed += static_cast<Cost>(green) * span;
    } else {
      out.greenEnergyUsed += static_cast<Cost>(total) * span;
    }
  }
  return out;
}

} // namespace cawo
