#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/enhanced_graph.hpp"
#include "util/types.hpp"

/// \file est_lst.hpp
/// Earliest / latest start times on the enhanced graph (Section 5.1/5.2).
///
/// EST(v) = max over predecessors u of EST(u) + ω(u)  (0 for sources).
/// LST(v) = min over successors w of LST(w) − ω(v)    (T − ω(v) for sinks).
/// The slack of v is LST(v) − EST(v); a feasible instance has slack ≥ 0 for
/// every node (guaranteed whenever the deadline is at least the ASAP
/// makespan).
///
/// `WindowState` maintains the windows of a partially scheduled instance
/// by incremental worklist propagation: pinning one task only affects the
/// ancestor/descendant cone reachable through still unplaced nodes, so
/// each placement touches only the nodes whose bound actually changes
/// (see DESIGN.md, "Incremental scheduling engine"). The paper-literal
/// full two-pass sweep, O(N+E) per placement, is the test oracle in
/// tests/oracles/est_lst_full_sweep.hpp.

namespace cawo {

/// Forward Kahn pass computing EST for every node.
std::vector<Time> computeEst(const EnhancedGraph& gc);

/// Backward Kahn pass computing LST for every node under deadline T.
std::vector<Time> computeLst(const EnhancedGraph& gc, Time deadline);

/// Incrementally maintained EST/LST windows of a partially scheduled
/// instance.
///
/// Invariant: after any sequence of `place` calls, `est()`/`lst()` equal
/// the full-sweep oracle's windows for the same placement set — bit for
/// bit. `place(v, s)` pins EST(v) = LST(v) = s and repairs the
/// fixpoint by worklist propagation: the forward (EST) worklist is
/// processed in topological order, the backward (LST) worklist in reverse
/// topological order, and every popped node is recomputed exactly from
/// its neighbours, so each node is processed at most once per placement
/// and propagation stops as soon as a bound stops changing. Placed nodes
/// stay pinned and absorb propagation.
///
/// A node with EST > LST has infeasible (negative) slack; the count of
/// such nodes is maintained incrementally so feasibility checks stay O(1).
class WindowState {
public:
  /// Initial windows of an unscheduled instance (full Kahn passes).
  WindowState(const EnhancedGraph& gc, Time deadline);

  /// Seed from precomputed *initial* windows (must equal `computeEst` /
  /// `computeLst` output — memoized by `SolveContext`); avoids the full
  /// passes when they are already known.
  WindowState(const EnhancedGraph& gc, Time deadline,
              std::vector<Time> initialEst, std::vector<Time> initialLst);

  const EnhancedGraph& graph() const { return *gc_; }
  Time deadline() const { return deadline_; }

  Time est(TaskId v) const { return estP_[posOf(checked(v))]; }
  Time lst(TaskId v) const { return lstP_[posOf(checked(v))]; }

  /// Windows indexed by node id — materialised on demand (the state is kept
  /// in topological-position space internally); intended for tests/oracles,
  /// not hot paths.
  std::vector<Time> estAll() const;
  std::vector<Time> lstAll() const;

  bool placed(TaskId v) const { return placedP_[posOf(checked(v))] != 0; }
  std::size_t numPlaced() const { return numPlaced_; }

  /// Pin task `v` at `start` and propagate the window change through the
  /// affected cone. `v` must not already be placed. Any start time is
  /// accepted (a start outside the current window simply drives slacks
  /// negative, exactly as the oracle would).
  void place(TaskId v, Time start);

  /// Number of nodes whose window is currently empty (EST > LST).
  std::size_t negativeSlackCount() const { return negativeSlack_; }

  /// True iff every node still has a non-empty window.
  bool feasible() const { return negativeSlack_ == 0; }

private:
  std::size_t checked(TaskId v) const;
  std::size_t posOf(std::size_t i) const {
    return static_cast<std::size_t>(gc_->topoPositions()[i]);
  }
  void setEst(std::size_t pos, Time value);
  void setLst(std::size_t pos, Time value);

  const EnhancedGraph* gc_ = nullptr;
  Time deadline_ = 0;

  // All mutable state lives in *topological-position space* (index = the
  // node's position in gc_->topoOrder()): the worklist propagation then
  // runs with zero id↔position translation, position-renumbered adjacency
  // (EnhancedGraph::posSucc*/posPred*), and topological locality between
  // neighbouring loads. `finishP_` caches estP_ + len so the forward
  // relaxation reads one array instead of two.
  std::vector<Time> estP_, lstP_, finishP_;
  std::vector<std::uint8_t> placedP_;
  std::size_t negativeSlack_ = 0;
  std::size_t numPlaced_ = 0;

  // Worklist scratch, kept across `place` calls (always all-zero between
  // them). Propagation is monotone in topological position — forward
  // pushes only go to larger positions, backward only to smaller — so the
  // pending set is a position bitmap (n/8 bytes, L1-resident) scanned in
  // bit order instead of a binary heap: pop is find-next-set-bit, push is
  // set-bit, deduplication is free.
  std::vector<std::uint64_t> pendFwd_, pendBwd_;
};

} // namespace cawo
