#pragma once

#include <cstddef>
#include <cstdint>

#include "core/enhanced_graph.hpp"
#include "core/power_profile.hpp"
#include "core/schedule.hpp"

/// \file local_search.hpp
/// The hill-climbing local search of Section 5.3 (variant suffix "-LS").
///
/// Processors are visited in non-increasing order of P_work (the costliest
/// first); on each processor the tasks are scanned left to right, and each
/// task tries to move its start time up to `radius` (the paper's µ = 10)
/// units left or right, earliest candidate first. The first legal move with
/// a strictly positive gain is applied. Because only improving moves are
/// accepted, the final cost never exceeds the initial one.
///
/// Rounds repeat until a round applies no move, but a round probes only
/// the *dirty* tasks: every task starts dirty, a probe clears its task's
/// flag, and an applied move flags every task whose probe could
/// now answer differently — the mover's Gc neighbours and every task whose
/// probe range [start − µ, end + µ) meets the timeline span the move
/// changed. A clean task would find no improving move again, so skipping
/// it leaves every move, round count and schedule identical to re-probing
/// all tasks each round (see DESIGN.md, "Dirty-set local search").

namespace cawo {

/// Move acceptance policy. The paper applies the *first* improving move
/// ("One could also check all legal moves and apply the best one. However,
/// preliminary experiments showed that this would not significantly improve
/// the outcome, so we opted for the faster variant."); both policies are
/// provided so that trade-off can be reproduced.
enum class MoveStrategy { FirstImprovement, BestImprovement };

struct LocalSearchOptions {
  Time radius = 10;             ///< µ: how far a task may shift per probe
  std::size_t maxRounds = ~std::size_t{0};
  MoveStrategy strategy = MoveStrategy::FirstImprovement;

  /// Worker threads (0 = hardware concurrency). Used for the restart
  /// fan-out of `localSearchRestarts`; one climb's candidate scan is
  /// served by the batched `peekMoveDeltas` prefix table (O(1) per
  /// candidate) and stays serial at any width. Results are bit-identical
  /// for every value: the restart merge is order-preserving with ties
  /// broken by restart index, never by completion order.
  unsigned threads = 1;

  /// Independent hill-climbing restarts for `localSearchRestarts`.
  /// Restart 0 climbs from the input schedule unchanged (so `restarts ==
  /// 1` is plain `localSearch`); restarts 1..N−1 climb from copies
  /// perturbed by per-restart RNG streams derived from `seed`. The best
  /// final cost wins, ties to the lowest restart index — the parallel
  /// merge therefore reproduces the serial best-of-N exactly.
  std::size_t restarts = 1;
  std::uint64_t seed = 0x5eedCA205eedULL; ///< base seed for perturbations
};

struct LocalSearchStats {
  std::size_t rounds = 0;
  std::size_t movesApplied = 0;
  /// Candidate targets scored across all rounds (the sum of the
  /// `ls.round` spans' `probes` args); clean tasks add nothing. Like
  /// `rounds` and `movesApplied`, it describes the winning climb when
  /// restarts run.
  std::size_t probes = 0;
  Cost initialCost = 0;
  Cost finalCost = 0;
  std::size_t restartsRun = 1; ///< climbs performed (1 for plain runs)
  std::size_t bestRestart = 0; ///< winning restart (0 = unperturbed)
};

/// Improve `schedule` in place; returns statistics about the run.
LocalSearchStats localSearch(const EnhancedGraph& gc,
                             const PowerProfile& profile, Time deadline,
                             Schedule& schedule,
                             const LocalSearchOptions& opts = {});

/// Best-of-N multi-start hill climbing (see `LocalSearchOptions::restarts`).
/// With `restarts == 1` this is exactly `localSearch`. Restarts are
/// independent — each climbs its own schedule copy on its own timeline —
/// so they run in parallel across `opts.threads` workers; the merge picks
/// the lowest final cost, ties to the lowest restart index, making the
/// result independent of the thread count. The winner can never be worse
/// than plain `localSearch` because restart 0 *is* plain `localSearch`.
LocalSearchStats localSearchRestarts(const EnhancedGraph& gc,
                                     const PowerProfile& profile,
                                     Time deadline, Schedule& schedule,
                                     const LocalSearchOptions& opts = {});

} // namespace cawo
