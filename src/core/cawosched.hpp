#pragma once

#include <string>
#include <vector>

#include "core/enhanced_graph.hpp"
#include "core/greedy.hpp"
#include "core/local_search.hpp"
#include "core/power_profile.hpp"
#include "core/schedule.hpp"

/// \file cawosched.hpp
/// Facade over the CaWoSched heuristic family (Section 5).
///
/// A variant is identified by four switches:
///   base score   slack | pressure        → prefix "slack" / "press"
///   weighted     account for proc power  → suffix "W"
///   refined      k-block interval subdivision → suffix "R"
///   local search hill-climbing pass      → suffix "-LS"
/// yielding the paper's 16 heuristics (slack, slackW, slackR, slackWR,
/// press, pressW, pressR, pressWR — each with and without -LS).

namespace cawo {

class SolveContext;

struct VariantSpec {
  BaseScore base = BaseScore::Pressure;
  bool weighted = false;
  bool refined = false;
  bool localSearch = false;

  /// Paper-style name, e.g. "pressWR-LS".
  std::string name() const;

  /// The greedy phase's options: this variant's score and intervals.
  GreedyOptions greedyOptions(int blockSize) const {
    return GreedyOptions{base, weighted, refined, blockSize};
  }

  /// Parse a paper-style name; throws PreconditionError on unknown names.
  static VariantSpec parse(const std::string& name);
};

/// All 16 CaWoSched variants in the paper's canonical order
/// (slack, slackW, slackR, slackWR, press, ..., then the same with -LS).
std::vector<VariantSpec> allVariants();

/// Tuning parameters (paper values: k = 3, µ = 10).
struct CaWoParams {
  int blockSize = 3;
  Time lsRadius = 10;

  /// Intra-solve worker threads (0 = hardware) for the local-search
  /// restart fan-out. Schedules are bit-identical for every value — the
  /// restart merge reduces in deterministic order.
  unsigned threads = 1;

  /// Local-search restarts (best-of-N; restart 0 is the unperturbed
  /// climb, so 1 = the paper's plain -LS pass).
  std::size_t lsRestarts = 1;
  std::uint64_t lsSeed = 0x5eedCA205eedULL; ///< restart perturbation seed
};

/// Per-phase diagnostics of one variant run: the greedy/local-search wall
/// time split and, when the variant ran local search, its statistics.
/// Surfaced through the solver stats map and the campaign JSON records so
/// speedups are attributable per phase.
struct VariantRunStats {
  double greedyMs = 0.0; ///< wall time of the greedy phase
  double lsMs = 0.0;     ///< wall time of the local-search phase (0 if none)
  bool lsRan = false;    ///< the variant has the -LS suffix
  LocalSearchStats ls;   ///< meaningful only when `lsRan`
};

/// Run one variant end to end: greedy phase, then (optionally) local search.
/// Builds a throwaway `SolveContext`; prefer the context overload when
/// several variants run on the same instance.
Schedule runVariant(const EnhancedGraph& gc, const PowerProfile& profile,
                    Time deadline, const VariantSpec& spec,
                    const CaWoParams& params = {});

/// Same pipeline over a shared per-instance context. When `stats` is
/// non-null it receives the per-phase wall-time split and the local-search
/// statistics.
Schedule runVariant(const SolveContext& ctx, const VariantSpec& spec,
                    const CaWoParams& params = {},
                    VariantRunStats* stats = nullptr);

} // namespace cawo
