#include "core/greedy.hpp"

#include <algorithm>

#include "core/budget_tree.hpp"
#include "core/est_lst.hpp"
#include "core/solve_context.hpp"
#include "obs/trace.hpp"
#include "util/require.hpp"

namespace cawo {

Schedule scheduleGreedy(const EnhancedGraph& gc, const PowerProfile& profile,
                        Time deadline, const GreedyOptions& opts) {
  const SolveContext ctx(gc, profile, deadline);
  return scheduleGreedy(ctx, opts);
}

Schedule scheduleGreedy(const SolveContext& ctx, const GreedyOptions& opts,
                        const ResidualProblem* residual) {
  obs::TraceScope span(residual != nullptr ? "greedy.residual" : "greedy");
  const EnhancedGraph& gc = ctx.gc();
  const PowerProfile& profile = ctx.profile();
  CAWO_REQUIRE(ctx.deadline() > 0, "deadline must be positive");
  CAWO_REQUIRE(profile.horizon() >= ctx.deadline(),
               "power profile must cover the deadline");
  if (residual != nullptr) requireResidualFits(gc, *residual);
  const auto isStarted = [&](TaskId v) {
    return residual != nullptr &&
           (*residual->started)[static_cast<std::size_t>(v)] != 0;
  };

  // A residual run may start from the caller's incrementally maintained
  // pinned-prefix windows; otherwise the pins are placed below (worklist
  // repair — the fixpoint is placement-order independent). Drift may have
  // emptied a residual window; only the offline instance must be feasible.
  WindowState windows = residual != nullptr && residual->windows != nullptr
                            ? *residual->windows
                            : ctx.windowState();
  CAWO_REQUIRE(residual != nullptr || windows.feasible(),
               "infeasible instance: deadline below ASAP makespan");

  // The working budget timeline: the context memoizes one built prototype
  // per interval set; each run mutates a plain copy.
  BudgetTree tree = ctx.budgetTreePrototype(opts.refined, opts.blockSize);

  // The pinned prefix already draws power over its effective execution
  // windows — consume it up front so movable placements see the remaining
  // budget, exactly as if the greedy itself had placed those nodes.
  Schedule schedule(gc.numNodes());
  std::size_t movable = static_cast<std::size_t>(gc.numNodes());
  for (TaskId v = 0; v < gc.numNodes(); ++v) {
    if (!isStarted(v)) continue;
    --movable;
    const Time a = residual->starts->start(v);
    schedule.setStart(v, a);
    if (residual->windows == nullptr) windows.place(v, a);
    const Time b = std::min(
        a + (*residual->durations)[static_cast<std::size_t>(v)],
        profile.horizon());
    if (a < b) tree.consume(a, b, gc.drawPower(v));
  }
  const Time release = residual != nullptr ? residual->releaseTime : 0;

  // Score-based processing order (scores use the *initial* EST/LST windows,
  // as in the paper; the windows then tighten as tasks get placed).
  for (const TaskId v :
       ctx.scoreOrder(ScoreOptions{opts.base, opts.weighted})) {
    if (isStarted(v)) continue;
    const Time lo = std::max(windows.est(v), release);
    const auto best = tree.maxInRange(lo, windows.lst(v));
    const Time start = best.found ? best.begin : lo;

    schedule.setStart(v, start);

    // Split the first/last touched interval at the task's boundaries, then
    // reduce the budget of every covered interval by the processor's draw.
    // The winner's directory locator skips the re-search for start's block.
    const Time end = std::min(start + gc.len(v), profile.horizon());
    if (best.found)
      tree.consume(start, end, gc.drawPower(v), best.block);
    else
      tree.consume(start, end, gc.drawPower(v));

    // The update after the last placement is dead — no window is read
    // again — so it is skipped entirely.
    if (--movable > 0) windows.place(v, start);
  }
  return schedule;
}

} // namespace cawo
