#pragma once

#include <span>
#include <vector>

#include "core/power_profile.hpp"
#include "util/types.hpp"

/// \file power_timeline.hpp
/// Incremental power/cost timeline used by the local search (batched
/// `peekMoveDeltas` probes plus `applyMove`) and the exact
/// branch-and-bound solver (`addLoad`/`removeLoad`/`totalCost`).
///
/// The horizon is partitioned into segments, each lying inside one profile
/// interval, carrying the currently-drawn *active* power (sum of P_work of
/// running tasks). The total carbon cost
///   Σ_segments max(base + active − green, 0) · length
/// is maintained incrementally under addLoad/removeLoad, so evaluating a
/// candidate task move costs far less than a full re-evaluation.
///
/// Storage is a flat sorted segment array (structure-of-arrays: contiguous
/// `begin`/`active`/`green` vectors, binary-searched branchlessly) instead
/// of the former `std::map` red-black tree: every probe walks contiguous
/// memory instead of chasing tree pointers, and a whole candidate batch is
/// served from one prefix table (see `peekMoveDeltas`). Mutations rewrite
/// only the affected window and shift the tail at most once; segments whose
/// (active, green) values become equal to a neighbour are coalesced
/// eagerly, so `numSegments()` stays bounded by the number of distinct
/// change points of the load function — probes and applied moves no longer
/// leave split residue behind (the `std::map` implementation accumulated
/// probe boundaries forever).
///
/// Every cost is an exact 64-bit integer, so `totalCost`, the
/// `peekMoveDeltas` probes and the deltas of `applyMove` equal the
/// map-backed oracle's values bit for bit (`MapPowerTimeline` in
/// tests/oracles, pinned by property test).

namespace cawo {

/// One candidate target interval for a batched move probe.
struct CandidateInterval {
  Time begin = 0;
  Time end = 0;
};

class PowerTimeline {
public:
  /// \param basePower power drawn at every time unit regardless of schedule
  ///        (Σ of idle powers of all enhanced processors).
  PowerTimeline(const PowerProfile& profile, Power basePower);

  /// Add `work` units of active power over [a, b).
  void addLoad(Time a, Time b, Power work);

  /// Remove `work` units of active power over [a, b) (must have been added).
  void removeLoad(Time a, Time b, Power work);

  /// A load span for the bulk loader.
  struct Load {
    Time begin = 0;
    Time end = 0;
    Power work = 0;
  };

  /// Add every load in one sweep — O((S + L)·log L) instead of L separate
  /// `addLoad` window rewrites. This is how the local search seeds a climb
  /// timeline from a whole schedule.
  void addLoads(std::span<const Load> loads);

  /// Move a load of `work` from [a, b) to [a2, b2) in one window rewrite
  /// (equivalent to removeLoad(a, b) + addLoad(a2, b2), but the two edits
  /// share a single pass and a single tail shift — the local search's
  /// applied-move path).
  void applyMove(Time a, Time b, Time a2, Time b2, Power work);

  /// Current total carbon cost.
  Cost totalCost() const { return total_; }

  /// Reusable workspace for `peekMoveDeltas`; hand the same object to
  /// every call so the candidate scan performs no allocation after the
  /// first few batches.
  struct PeekScratch {
    std::vector<Time> pieceBegin; ///< piece starts + one end sentinel
    std::vector<Power> gain;      ///< per-unit add gain inside each piece
    std::vector<Cost> prefix;     ///< gain integral up to each piece start
  };

  /// Batched candidate probe: out[i] is the cost change if a load of
  /// `work` moved from [a, b) to [candidates[i].begin, candidates[i].end)
  /// (negative = improvement; 0 for the identity move). The shared
  /// source-interval removal term is hoisted once per call and all
  /// targets are served from one prefix table built in a single pass over
  /// the overlapping segments — O(segments in window + candidates) for
  /// the whole batch. Read-only; `out.size()` must equal
  /// `candidates.size()`.
  void peekMoveDeltas(Time a, Time b, Power work,
                      std::span<const CandidateInterval> candidates,
                      PeekScratch& scratch, std::span<Cost> out) const;

  Time horizon() const { return horizon_; }

  /// Number of segments (diagnostic). Thanks to eager coalescing this is
  /// bounded by the number of change points of (active, green) over the
  /// horizon, independent of how many probes or moves were executed.
  std::size_t numSegments() const { return active_.size(); }

private:
  /// Index of the segment containing t (branchless binary search).
  std::size_t findSeg(Time t) const;

  Cost segCost(std::size_t i) const;

  /// Rewrite the segments intersecting the union span of the edits,
  /// applying `-work` over [a, b) and `+work` over [a2, b2) (either may be
  /// empty), coalescing inside the window and against both neighbours, and
  /// shifting the array tail at most once.
  void rewriteWindow(Time a, Time b, Time a2, Time b2, Power work);

  std::vector<Time> begin_;   ///< size S+1; begin_[S] == horizon sentinel
  std::vector<Power> active_; ///< size S
  std::vector<Power> green_;  ///< size S

  // Window-rewrite scratch, reused across mutations (no steady-state
  // allocation in the local-search applied-move path).
  std::vector<Time> scratchBegin_;
  std::vector<Power> scratchActive_;
  std::vector<Power> scratchGreen_;

  Power base_ = 0;
  Time horizon_ = 0;
  Cost total_ = 0;
};

} // namespace cawo
