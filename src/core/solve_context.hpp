#pragma once

#include <map>
#include <utility>
#include <vector>

#include "core/budget_tree.hpp"
#include "core/enhanced_graph.hpp"
#include "core/est_lst.hpp"
#include "core/interval_refinement.hpp"
#include "core/power_profile.hpp"
#include "core/scores.hpp"
#include "util/types.hpp"

/// \file solve_context.hpp
/// Per-instance memoization shared across solvers (see DESIGN.md,
/// "Incremental scheduling engine").
///
/// Every CaWoSched variant on the same (graph, profile, deadline) instance
/// re-derives the same artifacts: the initial EST/LST windows, the ASAP
/// makespan D, the k-block refined interval set and the score-based
/// processing orders. A `SolveContext` computes each of them lazily, once,
/// and hands out const references, so a 17-solver suite run pays for each
/// shared artifact exactly once per instance instead of once per solver.
/// Everything memoized here is a pure deterministic function of the
/// instance, so sharing cannot change any result — the golden-parity tests
/// pin that.
///
/// Concurrency contract (see DESIGN.md, "Parallel solve core"): the lazy
/// caches are unsynchronized, so one thread at a time fills or reads a
/// context — the campaign runner solves an instance's cells one after
/// another on one context, the CLI gives each solver its own, and the
/// serve daemon solves under the cache entry's mutex. Every lazy artifact
/// is computed serially; the one intra-solve fan-out, local-search
/// restarts, works on its own state and never touches the context.

namespace cawo {

class SolveContext {
public:
  /// Borrow the instance; `gc` and `profile` must outlive the context.
  SolveContext(const EnhancedGraph& gc, const PowerProfile& profile,
               Time deadline);

  SolveContext(const SolveContext&) = delete;
  SolveContext& operator=(const SolveContext&) = delete;

  const EnhancedGraph& gc() const { return *gc_; }
  const PowerProfile& profile() const { return *profile_; }
  Time deadline() const { return deadline_; }

  /// Initial (no task placed) earliest start times; `computeEst` output.
  const std::vector<Time>& initialEst() const;

  /// Initial latest start times under the deadline; `computeLst` output.
  const std::vector<Time>& initialLst() const;

  /// The ASAP makespan (the paper's D — the tightest feasible deadline).
  Time asapMakespan() const;

  /// Σ idle power over all enhanced processors (cached on the graph).
  Power totalIdlePower() const { return gc_->totalIdlePower(); }

  /// Σ work power over all enhanced processors.
  Power sumWorkPower() const;

  /// The k-block refined interval set (Section 5.2), memoized per block
  /// size — identical to `refineIntervals(gc, profile, blockSize)`.
  const std::vector<Interval>& refinedIntervals(int blockSize) const;

  /// The greedy processing order for a score configuration, memoized per
  /// (base, weighted) — identical to `scoreOrder` on the initial windows.
  const std::vector<TaskId>& scoreOrder(const ScoreOptions& opts) const;

  /// A built budget timeline over the working interval set (refined per
  /// `blockSize`, or the raw profile intervals), memoized per
  /// configuration. Greedy runs start from a plain copy of the prototype —
  /// three vector copies — instead of re-deriving and re-building the
  /// segment store on every solve.
  const BudgetTree& budgetTreePrototype(bool refined, int blockSize) const;

  /// A fresh incremental window state seeded from the memoized initial
  /// windows (no Kahn passes) — one per greedy run.
  WindowState windowState() const;

private:
  const EnhancedGraph* gc_;
  const PowerProfile* profile_;
  Time deadline_;

  // Lazy caches; mutable because memoization is not observable behaviour.
  mutable std::vector<Time> est_, lst_;
  mutable bool haveEst_ = false, haveLst_ = false;
  mutable Time asapMakespan_ = -1;
  mutable Power sumWorkPower_ = -1;
  mutable std::map<int, std::vector<Interval>> refinedByBlockSize_;
  /// Dense mark table reused by every refinement this context computes.
  mutable RefinementScratch refineScratch_;
  mutable std::map<std::pair<int, bool>, std::vector<TaskId>> orders_;
  /// key: blockSize for refined sets, −1 for the raw profile intervals.
  mutable std::map<int, BudgetTree> budgetTrees_;
};

} // namespace cawo
