#include "core/interval_refinement.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace cawo {

namespace {

/// Emit every candidate cut point of every processor into `emit(t)`,
/// t guaranteed in (0, horizon). Shared by the dense and sparse paths.
template <typename Emit>
void emitCuts(const EnhancedGraph& gc, const std::vector<Time>& boundaries,
              Time horizon, int k, Emit&& emit) {
  // Prefix lengths of a processor's task sequence for O(1) block sums;
  // one buffer serves every processor.
  std::vector<Time> prefix;
  for (ProcId p = 0; p < gc.numProcs(); ++p) {
    const auto order = gc.procOrder(p);
    const std::size_t np = order.size();
    prefix.resize(np + 1);
    prefix[0] = 0;
    for (std::size_t i = 0; i < np; ++i)
      prefix[i + 1] = prefix[i] + gc.len(order[i]);

    for (std::size_t first = 0; first < np; ++first) {
      const std::size_t lastLimit =
          std::min(np, first + static_cast<std::size_t>(k));
      for (std::size_t last = first + 1; last <= lastLimit; ++last) {
        // Block covers order[first .. last-1].
        const Time blockLen = prefix[last] - prefix[first];
        for (const Time e : boundaries) {
          // Block starts at e: task m starts at e + (prefix[m]-prefix[first])
          if (e + blockLen <= horizon) {
            for (std::size_t m = first; m < last; ++m) {
              const Time t = e + (prefix[m] - prefix[first]);
              if (t > 0 && t < horizon) emit(t);
            }
          }
          // Block ends at e: task m starts at e − (prefix[last]-prefix[m]).
          if (e - blockLen >= 0) {
            for (std::size_t m = first; m < last; ++m) {
              const Time t = e - (prefix[last] - prefix[m]);
              if (t > 0 && t < horizon) emit(t);
            }
          }
        }
      }
    }
  }
}

/// Horizon cap for the dense mark table (bytes). Block-alignment emits
/// O(procs · np · k² · |boundaries|) candidate times with massive
/// duplication; below this cap a byte-per-time-unit table replaces the
/// collect-then-sort entirely.
constexpr Time kDenseHorizonLimit = Time(1) << 26;

} // namespace

std::vector<Time> refinementCutPoints(const EnhancedGraph& gc,
                                      const PowerProfile& profile, int k,
                                      RefinementScratch* scratch) {
  CAWO_REQUIRE(k >= 1, "block size must be at least 1");
  const Time horizon = profile.horizon();
  const std::vector<Time> boundaries = profile.boundaries();

  if (horizon > 0 && horizon <= kDenseHorizonLimit) {
    // Dense path: one byte per time unit. The table lives in the caller's
    // scratch when given, so repeated refinements reuse the allocation
    // instead of faulting a fresh one.
    const auto n = static_cast<std::size_t>(horizon);
    RefinementScratch local;
    RefinementScratch& s = scratch != nullptr ? *scratch : local;
    s.marks.assign(n, 0);
    std::uint8_t* const marks = s.marks.data();
    emitCuts(gc, boundaries, horizon, k,
             [&](Time t) { marks[static_cast<std::size_t>(t)] = 1; });
    // Times that are already interval boundaries are not *new* cut points.
    for (const Time b : boundaries)
      if (b > 0 && b < horizon) marks[static_cast<std::size_t>(b)] = 0;
    std::vector<Time> fresh;
    for (std::size_t t = 1; t < n; ++t)
      if (marks[t]) fresh.push_back(static_cast<Time>(t));
    return fresh;
  }

  // Sparse fallback (very long horizons): collect, then sort + unique.
  std::vector<Time> cuts;
  emitCuts(gc, boundaries, horizon, k, [&](Time t) { cuts.push_back(t); });
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  std::vector<Time> sortedBoundaries = boundaries;
  std::sort(sortedBoundaries.begin(), sortedBoundaries.end());
  std::vector<Time> fresh;
  fresh.reserve(cuts.size());
  std::set_difference(cuts.begin(), cuts.end(), sortedBoundaries.begin(),
                      sortedBoundaries.end(), std::back_inserter(fresh));
  return fresh;
}

std::vector<Interval> splitIntervalsAt(std::span<const Interval> intervals,
                                       const std::vector<Time>& cuts) {
  std::vector<Interval> out;
  out.reserve(intervals.size() + cuts.size());
  std::size_t ci = 0;
  for (const Interval& iv : intervals) {
    Time begin = iv.begin;
    while (ci < cuts.size() && cuts[ci] <= iv.begin) ++ci;
    std::size_t cj = ci;
    while (cj < cuts.size() && cuts[cj] < iv.end) {
      out.push_back(Interval{begin, cuts[cj], iv.green});
      begin = cuts[cj];
      ++cj;
    }
    out.push_back(Interval{begin, iv.end, iv.green});
    ci = cj;
  }
  return out;
}

std::vector<Interval> refineIntervals(const EnhancedGraph& gc,
                                      const PowerProfile& profile, int k,
                                      RefinementScratch* scratch) {
  const std::vector<Time> cuts = refinementCutPoints(gc, profile, k, scratch);
  return splitIntervalsAt(profile.intervals(), cuts);
}

} // namespace cawo
