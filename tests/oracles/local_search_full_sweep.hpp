#pragma once

// Test oracle: the full-sweep hill climb of Section 5.3, kept verbatim from
// the implementation that re-probed every task in every round. The library
// climb (`localSearch`) skips tasks whose probe inputs did not change since
// they last found no improving move; it must reproduce this oracle move for
// move — schedule, rounds, moves and costs — while scoring no more
// candidates. `localSearchFullSweep` takes the same options: with
// `restarts` > 1 it climbs every restart from the same perturbation
// streams, keeps them all and picks the winner afterwards.

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "core/local_search.hpp"
#include "core/power_timeline.hpp"
#include "core/schedule.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace cawo::oracle {

/// Legal start window of `v` against the *current* starts of its
/// neighbours (Gc's per-processor chain edges make this subsume
/// exclusivity), clamped to ±radius around the current start.
inline std::pair<Time, Time> moveWindow(const EnhancedGraph& gc,
                                        Time deadline, const Schedule& s,
                                        TaskId v, Time len, Time radius) {
  const Time cur = s.start(v);
  Time lo = 0;
  for (TaskId u : gc.preds(v)) lo = std::max(lo, s.end(u, gc));
  Time hi = deadline - len;
  for (TaskId u : gc.succs(v)) hi = std::min(hi, s.start(u) - len);
  lo = std::max(lo, cur - radius);
  hi = std::min(hi, cur + radius);
  return {lo, hi};
}

/// The restart perturbation: each nonzero-length task is moved (coin flip)
/// to a uniform position inside its precedence-legal window around the
/// current start, walking the topological order.
inline void perturbSchedule(const EnhancedGraph& gc, Time deadline,
                            Schedule& s, Time radius, Rng& rng) {
  for (const TaskId v : gc.topoOrder()) {
    const Time len = gc.len(v);
    if (len == 0) continue;
    if ((rng.next() & 1) == 0) continue;
    const auto [lo, hi] = moveWindow(gc, deadline, s, v, len, radius);
    if (lo >= hi) continue;
    s.setStart(v, static_cast<Time>(rng.uniformInt(lo, hi)));
  }
}

/// One climb that probes every nonzero-length task in every round — the
/// climb before the dirty set, without its trace spans and with the
/// per-round probe count summed into `stats.probes`.
inline LocalSearchStats fullSweepClimb(const EnhancedGraph& gc,
                                       const PowerProfile& profile,
                                       Time deadline, Schedule& schedule,
                                       Time radius) {
  CAWO_REQUIRE(radius >= 0, "negative search radius");
  CAWO_REQUIRE(profile.horizon() >= deadline,
               "power profile must cover the deadline");
  const ValidationResult valid = validateSchedule(gc, schedule, deadline);
  CAWO_REQUIRE(valid.ok, "local search needs a feasible schedule: " +
                             valid.message);

  PowerTimeline timeline(profile, gc.totalIdlePower());
  {
    std::vector<PowerTimeline::Load> loads;
    loads.reserve(static_cast<std::size_t>(gc.numNodes()));
    for (TaskId u = 0; u < gc.numNodes(); ++u)
      loads.push_back({schedule.start(u), schedule.end(u, gc),
                       gc.workPower(gc.procOf(u))});
    timeline.addLoads(loads);
  }

  LocalSearchStats stats;
  stats.initialCost = timeline.totalCost();

  // Per-climb candidate-scan workspace, reused across every task so the
  // inner loop performs no steady-state allocation.
  std::vector<CandidateInterval> cands;
  std::vector<Cost> deltas;
  PowerTimeline::PeekScratch peek;

  // Costliest processors first (paper: non-increasing P_work).
  std::vector<ProcId> procs(static_cast<std::size_t>(gc.numProcs()));
  std::iota(procs.begin(), procs.end(), ProcId{0});
  std::sort(procs.begin(), procs.end(), [&](ProcId a, ProcId b) {
    if (gc.workPower(a) != gc.workPower(b))
      return gc.workPower(a) > gc.workPower(b);
    return a < b;
  });

  for (;;) {
    ++stats.rounds; // counts executed passes, including the final gainless one
    std::int64_t probes = 0;
    bool improved = false;
    for (const ProcId p : procs) {
      for (const TaskId v : gc.procOrder(p)) {
        const Time len = gc.len(v);
        if (len == 0) continue; // zero-length nodes draw no power
        const Power w = gc.workPower(p);
        const Time cur = schedule.start(v);
        const auto [lo, hi] =
            moveWindow(gc, deadline, schedule, v, len, radius);

        Time bestTarget = cur;
        Cost bestDelta = 0;
        if (hi >= lo) {
          // Batched probe: one prefix table over the candidate window
          // serves every target in O(1). The earliest improving delta
          // wins.
          cands.clear();
          for (Time t = lo; t <= hi; ++t) cands.push_back({t, t + len});
          deltas.resize(cands.size());
          probes += static_cast<std::int64_t>(cands.size());
          timeline.peekMoveDeltas(cur, cur + len, w, cands, peek, deltas);
          for (std::size_t i = 0; i < cands.size(); ++i) {
            const Time t = lo + static_cast<Time>(i);
            if (t == cur) continue;
            if (deltas[i] < bestDelta) {
              bestDelta = deltas[i];
              bestTarget = t;
              break;
            }
          }
        }
        if (bestDelta < 0) {
          timeline.applyMove(cur, cur + len, bestTarget, bestTarget + len, w);
          schedule.setStart(v, bestTarget);
          ++stats.movesApplied;
          improved = true;
        }
      }
    }
    stats.probes += static_cast<std::size_t>(probes);
    if (!improved) break;
  }
  stats.finalCost = timeline.totalCost();
  return stats;
}

/// Best-of-N over full-sweep climbs: restart 0 climbs the input, restart
/// r > 0 climbs a copy perturbed by `Rng(seed + r·golden)`; the lowest
/// final cost wins, ties to the lowest restart index.
inline LocalSearchStats localSearchFullSweep(const EnhancedGraph& gc,
                                             const PowerProfile& profile,
                                             Time deadline, Schedule& schedule,
                                             const LocalSearchOptions& opts) {
  const std::size_t restarts = std::max<std::size_t>(1, opts.restarts);
  std::vector<Schedule> finals;
  std::vector<LocalSearchStats> runs;
  for (std::size_t r = 0; r < restarts; ++r) {
    Schedule mine = schedule;
    if (r > 0) {
      Rng rng(opts.seed +
              0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(r));
      perturbSchedule(gc, deadline, mine, opts.radius * 4, rng);
    }
    runs.push_back(fullSweepClimb(gc, profile, deadline, mine, opts.radius));
    finals.push_back(std::move(mine));
  }
  std::size_t best = 0;
  for (std::size_t r = 1; r < restarts; ++r)
    if (runs[r].finalCost < runs[best].finalCost) best = r;
  LocalSearchStats stats = runs[best];
  stats.initialCost = runs[0].initialCost;
  stats.restartsRun = restarts;
  stats.bestRestart = best;
  schedule = std::move(finals[best]);
  return stats;
}

} // namespace cawo::oracle
