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
/// a strictly positive gain is applied — the paper's choice over applying
/// the best move, which "would not significantly improve the outcome".
/// Because only improving moves are accepted, the final cost never exceeds
/// the initial one.
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

struct LocalSearchOptions {
  Time radius = 10; ///< µ: how far a task may shift per probe

  /// Best-of-N hill climbing, one climb after another on the calling
  /// thread. Restart 0 climbs the input schedule unchanged (so `restarts
  /// == 1` is the paper's plain -LS pass and copies nothing); restarts
  /// 1..N−1 climb copies of the input perturbed by per-restart RNG streams
  /// derived from `seed`. The lowest final cost wins, ties to the lowest
  /// restart index.
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
  Cost initialCost = 0; ///< cost of the input schedule
  Cost finalCost = 0;
  std::size_t restartsRun = 1; ///< climbs performed
  std::size_t bestRestart = 0; ///< winning restart (0 = unperturbed)
};

/// Improve `schedule` in place with `opts.restarts` climbs and keep the
/// best; returns statistics about the run. The winner can never be worse
/// than the plain climb because restart 0 *is* the plain climb.
LocalSearchStats localSearch(const EnhancedGraph& gc,
                             const PowerProfile& profile, Time deadline,
                             Schedule& schedule,
                             const LocalSearchOptions& opts = {});

} // namespace cawo
