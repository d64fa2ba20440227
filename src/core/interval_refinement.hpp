#pragma once

#include <cstdint>
#include <vector>

#include "core/enhanced_graph.hpp"
#include "core/power_profile.hpp"
#include "util/types.hpp"

/// \file interval_refinement.hpp
/// The finer interval subdivision of Section 5.2 ("Subdivision of the
/// intervals"), motivated by the E-schedule lemma of the uniprocessor case.
///
/// On each (enhanced) processor, every block of at most `k` consecutive
/// tasks (in the fixed per-processor order) is tentatively aligned so that
/// the block starts or ends at one of the original interval boundaries; the
/// implied start time of every task of the block becomes a candidate cut
/// point. The refined interval set is the original profile subdivided at
/// all cut points, budgets inherited. The paper uses k = 3.

namespace cawo {

/// Reusable storage for the refinement kernel: the dense mark table (one
/// byte per time unit of horizon) survives across calls, so repeated
/// refinements — different block sizes on one context, or the online
/// engine's re-solve loop — stop re-allocating and re-faulting it.
/// `SolveContext` owns one and threads it through `refinedIntervals`.
struct RefinementScratch {
  std::vector<std::uint8_t> marks;
};

/// Candidate cut points in (0, horizon), sorted and deduplicated through a
/// dense mark table (or a sort on the sparse fallback path for very long
/// horizons). `scratch` (optional) supplies the reusable mark table.
std::vector<Time> refinementCutPoints(const EnhancedGraph& gc,
                                      const PowerProfile& profile, int k,
                                      RefinementScratch* scratch = nullptr);

/// The refined interval list: the profile's intervals split at every cut
/// point, budgets inherited from the containing original interval.
std::vector<Interval> refineIntervals(const EnhancedGraph& gc,
                                      const PowerProfile& profile, int k,
                                      RefinementScratch* scratch = nullptr);

/// Split the given contiguous interval list at the given sorted cut points.
/// Exposed separately for testing.
std::vector<Interval> splitIntervalsAt(std::span<const Interval> intervals,
                                       const std::vector<Time>& cuts);

} // namespace cawo
