#include "core/local_search.hpp"

#include <algorithm>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "core/power_timeline.hpp"
#include "obs/trace.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace cawo {

namespace {

/// Legal start window of `v` against the *current* starts of its
/// neighbours (Gc's per-processor chain edges make this subsume
/// exclusivity), clamped to ±radius around the current start.
std::pair<Time, Time> moveWindow(const EnhancedGraph& gc, Time deadline,
                                 const Schedule& s, TaskId v, Time len,
                                 Time radius) {
  const Time cur = s.start(v);
  Time lo = 0;
  for (TaskId u : gc.preds(v)) lo = std::max(lo, s.end(u, gc));
  Time hi = deadline - len;
  for (TaskId u : gc.succs(v)) hi = std::min(hi, s.start(u) - len);
  lo = std::max(lo, cur - radius);
  hi = std::min(hi, cur + radius);
  return {lo, hi};
}

/// Deterministically jitter a feasible schedule for one restart: each
/// nonzero-length task is moved (coin flip) to a uniform position inside
/// its precedence-legal window around the current start. Walking the
/// topological order keeps every intermediate schedule feasible — a move
/// only consults neighbour starts that are already final for this step.
void perturbSchedule(const EnhancedGraph& gc, Time deadline, Schedule& s,
                     Time radius, Rng& rng) {
  for (const TaskId v : gc.topoOrder()) {
    const Time len = gc.len(v);
    if (len == 0) continue;
    if ((rng.next() & 1) == 0) continue;
    const auto [lo, hi] = moveWindow(gc, deadline, s, v, len, radius);
    if (lo >= hi) continue;
    s.setStart(v, static_cast<Time>(rng.uniformInt(lo, hi)));
  }
}

/// One first-improvement climb of `schedule` in place; `restart` only
/// labels its span.
LocalSearchStats climb(const EnhancedGraph& gc, const PowerProfile& profile,
                       Time deadline, Schedule& schedule, Time radius,
                       std::size_t restart) {
  obs::TraceScope span("ls.climb");
  span.arg("restart", static_cast<std::int64_t>(restart));
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

  // Exact don't-look bits. A probe of v reads only v's move window (its
  // own start plus its Gc neighbours' starts/ends) and the integer
  // timeline over [start − µ, end + µ); a task whose flag is clear found
  // no improving move and nothing it reads has changed since, so the
  // round skips it. Every task starts dirty.
  std::vector<unsigned char> dirty(static_cast<std::size_t>(gc.numNodes()),
                                   1);
  const std::span<const Time> lens = gc.lens();
  const std::vector<Time>& starts = schedule.starts();
  // After v moved from `from` to `to`, flag its Gc neighbours and every
  // task whose probe range meets the changed span [min, max + len). Chain
  // edges keep starts and ends non-decreasing along each procOrder, so on
  // every processor those tasks are one run found by two binary searches.
  auto markMoved = [&](TaskId v, Time from, Time to) {
    for (const TaskId u : gc.preds(v)) dirty[static_cast<std::size_t>(u)] = 1;
    for (const TaskId u : gc.succs(v)) dirty[static_cast<std::size_t>(u)] = 1;
    const Time a = std::min(from, to);
    const Time b = std::max(from, to) + lens[static_cast<std::size_t>(v)];
    for (const ProcId p : procs) {
      const std::span<const TaskId> order = gc.procOrder(p);
      const auto first =
          std::partition_point(order.begin(), order.end(), [&](TaskId u) {
            const auto i = static_cast<std::size_t>(u);
            return starts[i] + lens[i] + radius <= a;
          });
      const auto last = std::partition_point(first, order.end(), [&](TaskId u) {
        return starts[static_cast<std::size_t>(u)] - radius < b;
      });
      for (auto it = first; it != last; ++it)
        dirty[static_cast<std::size_t>(*it)] = 1;
    }
  };

  for (;;) {
    ++stats.rounds; // counts executed passes, including the final gainless one
    // One span per improvement pass; the batched-probe volume rides along
    // as an arg so the probe cost is visible without per-probe events.
    obs::TraceScope round("ls.round");
    std::int64_t probes = 0;
    bool improved = false;
    for (const ProcId p : procs) {
      for (const TaskId v : gc.procOrder(p)) {
        const Time len = gc.len(v);
        if (len == 0) continue; // zero-length nodes draw no power
        unsigned char& isDirty = dirty[static_cast<std::size_t>(v)];
        if (isDirty == 0) continue; // a re-probe would find no move again
        isDirty = 0;
        const Power w = gc.workPower(p);
        const Time cur = schedule.start(v);
        const auto [lo, hi] =
            moveWindow(gc, deadline, schedule, v, len, radius);

        Time target = cur; // stays put unless a move improves
        if (hi >= lo) {
          // Batched probe: one prefix table over the candidate window
          // serves every target in O(1), so the scan is O(segments in
          // window + candidates) regardless of radius. The first
          // improving delta, earliest candidate first, wins.
          cands.clear();
          for (Time t = lo; t <= hi; ++t) cands.push_back({t, t + len});
          deltas.resize(cands.size());
          probes += static_cast<std::int64_t>(cands.size());
          timeline.peekMoveDeltas(cur, cur + len, w, cands, peek, deltas);
          for (std::size_t i = 0; i < cands.size(); ++i) {
            const Time t = lo + static_cast<Time>(i);
            if (t != cur && deltas[i] < 0) {
              target = t;
              break;
            }
          }
        }
        if (target != cur) {
          timeline.applyMove(cur, cur + len, target, target + len, w);
          schedule.setStart(v, target);
          markMoved(v, cur, target);
          ++stats.movesApplied;
          improved = true;
        }
      }
    }
    round.arg("probes", probes);
    stats.probes += static_cast<std::size_t>(probes);
    if (!improved) break;
  }
  stats.finalCost = timeline.totalCost();
  CAWO_ASSERT(stats.finalCost <= stats.initialCost,
              "local search must never worsen the schedule");
  return stats;
}

} // namespace

LocalSearchStats localSearch(const EnhancedGraph& gc,
                             const PowerProfile& profile, Time deadline,
                             Schedule& schedule,
                             const LocalSearchOptions& opts) {
  obs::TraceScope span("ls");
  CAWO_REQUIRE(opts.radius >= 0, "negative search radius");
  CAWO_REQUIRE(profile.horizon() >= deadline,
               "power profile must cover the deadline");
  const std::size_t restarts = std::max<std::size_t>(1, opts.restarts);
  if (restarts == 1)
    return climb(gc, profile, deadline, schedule, opts.radius, 0);

  // Every restart perturbs the input, so keep it; `schedule` holds the
  // best climb so far. Strictly lower final cost wins, so ties go to the
  // lowest restart index.
  const Schedule input = schedule;
  LocalSearchStats best =
      climb(gc, profile, deadline, schedule, opts.radius, 0);
  const Cost inputCost = best.initialCost;
  Schedule candidate;
  for (std::size_t r = 1; r < restarts; ++r) {
    candidate = input;
    // Restart r seeds SplitMix64 at `seed + r·golden`, and diversifies
    // beyond the climb radius to escape the basin of the unperturbed
    // climb.
    Rng rng(opts.seed +
            0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(r));
    perturbSchedule(gc, deadline, candidate, opts.radius * 4, rng);
    const LocalSearchStats stats =
        climb(gc, profile, deadline, candidate, opts.radius, r);
    if (stats.finalCost < best.finalCost) {
      best = stats;
      best.bestRestart = r;
      std::swap(schedule, candidate);
    }
  }
  best.initialCost = inputCost;
  best.restartsRun = restarts;
  return best;
}

} // namespace cawo
