#include "core/carbon_cost.hpp"

#include <algorithm>
#include <utility>

#include "util/require.hpp"

namespace cawo {

namespace {

/// Power events (time, ±P_work) of a trajectory, sorted by time.
using PowerEvents = std::vector<std::pair<Time, Power>>;

/// Collect the events of every node of `s` that draws power inside
/// [0, upTo), node u running for `durationOf(u)` from its start.
/// Zero-length nodes draw no power. For a `prefix` of a trajectory, nodes
/// without a start are skipped and runs are cut at `upTo`; otherwise
/// every node must have a start and finish by `upTo`.
template <class DurationOf>
PowerEvents collectEvents(const EnhancedGraph& gc, const Schedule& s,
                          Time upTo, bool prefix, DurationOf durationOf) {
  PowerEvents events;
  events.reserve(2 * static_cast<std::size_t>(gc.numNodes()));
  for (TaskId u = 0; u < gc.numNodes(); ++u) {
    if (!s.isSet(u)) {
      CAWO_REQUIRE(prefix, "schedule is incomplete");
      continue;
    }
    const Time d = durationOf(u);
    CAWO_REQUIRE(d >= 0, "negative duration");
    if (d == 0) continue;
    const Time a = s.start(u);
    CAWO_REQUIRE(a >= 0, "negative start time");
    Time b = a + d;
    if (prefix)
      b = std::min(b, upTo);
    else
      CAWO_REQUIRE(b <= upTo, "schedule exceeds the profile horizon");
    if (a >= b) continue; // entirely past the window
    const Power w = gc.workPower(gc.procOf(u));
    events.emplace_back(a, w);
    events.emplace_back(b, -w);
  }
  std::sort(events.begin(), events.end());
  return events;
}

/// The one sweep of Appendix A.1: walk [0, upTo) in constant-power
/// pieces, cut at every event and every profile boundary, and hand each
/// piece to `visit(interval, length, drawn, green)` — the profile
/// interval it lies in (the last one past the horizon), its length, the
/// power drawn (idle floor plus running work) and the green budget
/// (0 past the profile horizon, where everything drawn is brown).
template <class Visit>
void forEachPiece(const EnhancedGraph& gc, const PowerProfile& profile,
                  const PowerEvents& events, Time upTo, Visit visit) {
  const Power base = gc.totalIdlePower();
  const Time horizon = profile.horizon();
  const auto intervals = profile.intervals();
  Power active = 0;
  std::size_t ei = 0;
  std::size_t interval = 0;
  for (Time t = 0; t < upTo;) {
    while (ei < events.size() && events[ei].first <= t)
      active += events[ei++].second;
    while (interval + 1 < intervals.size() && intervals[interval].end <= t)
      ++interval;
    Time next = upTo;
    if (ei < events.size()) next = std::min(next, events[ei].first);
    const bool inHorizon = t < horizon;
    if (inHorizon) next = std::min(next, intervals[interval].end);
    visit(interval, next - t, base + active,
          inHorizon ? intervals[interval].green : Power{0});
    t = next;
  }
}

/// Brown energy Σ max(drawn − green, 0) over the pieces of [0, upTo).
Cost brownCost(const EnhancedGraph& gc, const PowerProfile& profile,
               const PowerEvents& events, Time upTo) {
  Cost total = 0;
  forEachPiece(gc, profile, events, upTo,
               [&](std::size_t, Time length, Power drawn, Power green) {
                 if (drawn > green)
                   total += static_cast<Cost>(drawn - green) * length;
               });
  return total;
}

/// A planned trajectory: every node runs for ω(u) inside the horizon.
PowerEvents plannedEvents(const EnhancedGraph& gc,
                          const PowerProfile& profile, const Schedule& s) {
  return collectEvents(gc, s, profile.horizon(), /*prefix=*/false,
                       [&](TaskId u) { return gc.len(u); });
}

void requireDurations(const EnhancedGraph& gc,
                      const std::vector<Time>& durations) {
  CAWO_REQUIRE(durations.size() == static_cast<std::size_t>(gc.numNodes()),
               "durations vector does not match the graph");
}

} // namespace

Cost evaluateCost(const EnhancedGraph& gc, const PowerProfile& profile,
                  const Schedule& s) {
  return brownCost(gc, profile, plannedEvents(gc, profile, s),
                   profile.horizon());
}

Cost evaluateCostWithDurations(const EnhancedGraph& gc,
                               const PowerProfile& profile, const Schedule& s,
                               const std::vector<Time>& durations) {
  requireDurations(gc, durations);
  // Bill through the later of the profile horizon (idle floor) and the
  // trajectory's last completion (overshoot is all brown).
  Time upTo = profile.horizon();
  for (TaskId u = 0; u < gc.numNodes(); ++u) {
    CAWO_REQUIRE(s.isSet(u), "schedule is incomplete");
    upTo = std::max(upTo, s.start(u) + durations[static_cast<std::size_t>(u)]);
  }
  const PowerEvents events = collectEvents(
      gc, s, upTo, /*prefix=*/false,
      [&](TaskId u) { return durations[static_cast<std::size_t>(u)]; });
  return brownCost(gc, profile, events, upTo);
}

Cost evaluateCostPrefix(const EnhancedGraph& gc, const PowerProfile& profile,
                        const Schedule& s, const std::vector<Time>& durations,
                        Time upTo) {
  requireDurations(gc, durations);
  if (upTo <= 0) return 0;
  const PowerEvents events = collectEvents(
      gc, s, upTo, /*prefix=*/true,
      [&](TaskId u) { return durations[static_cast<std::size_t>(u)]; });
  return brownCost(gc, profile, events, upTo);
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
  CostBreakdown out;
  out.perInterval.assign(profile.numIntervals(), 0);
  forEachPiece(gc, profile, plannedEvents(gc, profile, s), profile.horizon(),
               [&](std::size_t interval, Time length, Power drawn,
                   Power green) {
                 out.peakPower = std::max(out.peakPower, drawn);
                 if (drawn > green) {
                   const Cost brown = static_cast<Cost>(drawn - green) * length;
                   out.perInterval[interval] += brown;
                   out.total += brown;
                   out.brownEnergyUsed += brown;
                   out.greenEnergyUsed += static_cast<Cost>(green) * length;
                 } else {
                   out.greenEnergyUsed += static_cast<Cost>(drawn) * length;
                 }
               });
  return out;
}

} // namespace cawo
