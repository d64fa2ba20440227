#pragma once

#include "core/enhanced_graph.hpp"
#include "core/power_profile.hpp"
#include "core/schedule.hpp"
#include "core/scores.hpp"

/// \file greedy.hpp
/// The greedy phase of CaWoSched (Section 5.2).
///
/// Tasks are processed in score order. For each task the algorithm picks,
/// among the (possibly refined) intervals whose begin lies in
/// [EST(v), LST(v)], the one with the highest remaining green budget
/// (earliest on ties) and starts the task there; if no interval begin is
/// reachable, the task starts at EST(v). After placement, the working
/// intervals are split at the task's boundaries, their budgets are reduced
/// by P_idle + P_work of the task's processor, and the EST/LST windows of
/// the remaining tasks are re-tightened — incrementally, via
/// `WindowState` worklist propagation, instead of the paper-literal full
/// sweep (same fixpoint, so the schedules are bit-identical). The window
/// update after the *last* placement is dead (nobody reads the windows
/// again) and is skipped. The online engine's mid-execution re-solves run
/// the same loop over a `ResidualProblem` (core/schedule.hpp).

namespace cawo {

class SolveContext;

struct GreedyOptions {
  BaseScore base = BaseScore::Pressure;
  bool weighted = false;
  /// Use the fine-grained k-block interval subdivision (suffix "R").
  bool refined = false;
  /// Block size for the refinement (the paper uses k = 3).
  int blockSize = 3;
};

/// Compute a greedy carbon-aware schedule. The deadline must be feasible
/// (≥ ASAP makespan) and the profile horizon must cover the deadline.
/// Builds a throwaway `SolveContext`; prefer the context overload when
/// several variants run on the same instance.
Schedule scheduleGreedy(const EnhancedGraph& gc, const PowerProfile& profile,
                        Time deadline, const GreedyOptions& opts);

/// Same algorithm, drawing the initial windows, the refined interval set
/// and the score order from the shared per-instance context.
///
/// With a `residual` (a partially executed instance; null is the offline
/// problem) started nodes stay pinned, their power draw is pre-consumed
/// from the budget timeline over their *effective* execution windows, and
/// the movable nodes are placed in the context's score order with start
/// lower bound max(EST, releaseTime) on the pinned-prefix windows. The
/// result may then be infeasible when execution drift has emptied a
/// window — callers check with `validateSchedule(..., residual)`.
Schedule scheduleGreedy(const SolveContext& ctx, const GreedyOptions& opts,
                        const ResidualProblem* residual = nullptr);

} // namespace cawo
