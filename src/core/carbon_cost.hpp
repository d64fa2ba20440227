#pragma once

#include <vector>

#include "core/enhanced_graph.hpp"
#include "core/power_profile.hpp"
#include "core/schedule.hpp"
#include "util/types.hpp"

/// \file carbon_cost.hpp
/// Carbon cost of a schedule (Section 3 / Appendix A.1).
///
/// At time t in interval I_j the platform draws
///   P_t = Σ_i P_idle^i + Σ_{u active at t} P_work^{proc(u)}
/// and the carbon cost is CC_t = max(P_t − G_j, 0). The total is Σ_t CC_t.
///
/// `evaluateCost` is the polynomial sweep-line evaluator of Appendix A.1
/// (subintervals between task start/end events and interval boundaries).
/// The tests cross-check it against a per-time-unit reference evaluator,
/// `tests/oracles/carbon_cost_reference.hpp`.

namespace cawo {

/// Polynomial carbon-cost evaluation, O((N + J) log(N + J)).
/// The schedule must be complete; it may run past the profile horizon only
/// if the caller extended the profile accordingly.
Cost evaluateCost(const EnhancedGraph& gc, const PowerProfile& profile,
                  const Schedule& s);

/// Per-interval cost decomposition (for reporting / plotting).
struct CostBreakdown {
  Cost total = 0;
  std::vector<Cost> perInterval;  ///< aligned with profile.intervals()
  Power peakPower = 0;            ///< max P_t over the horizon
  Cost greenEnergyUsed = 0;       ///< Σ_t min(P_t, G_t)
  Cost brownEnergyUsed = 0;       ///< Σ_t max(P_t − G_t, 0) == total
};

CostBreakdown evaluateCostBreakdown(const EnhancedGraph& gc,
                                    const PowerProfile& profile,
                                    const Schedule& s);

/// Carbon cost of a trajectory with explicit per-node durations (the online
/// replay engine bills *actual* runtimes, which may differ from ω(u)).
/// Identical to `evaluateCost` when `durations[u] == gc.len(u)` for all u —
/// same sweep, bit for bit. Time past the profile horizon (a perturbed run
/// overshooting the plan) is billed with a green budget of 0: everything
/// drawn there is brown.
Cost evaluateCostWithDurations(const EnhancedGraph& gc,
                               const PowerProfile& profile, const Schedule& s,
                               const std::vector<Time>& durations);

/// Carbon cost of a *pinned prefix*: the (possibly partial) trajectory `s`
/// restricted to the window [0, upTo). Nodes without a start are ignored;
/// contributions are clipped at `upTo`. The idle floor accrues over the
/// whole window. Used by the online engine both for billing the executed
/// prefix against the actual profile and for the reactive policy's
/// forecast-deviation signal.
Cost evaluateCostPrefix(const EnhancedGraph& gc, const PowerProfile& profile,
                        const Schedule& s, const std::vector<Time>& durations,
                        Time upTo);

/// Schedule-independent lower bound on the carbon cost of *any* complete
/// schedule within the profile horizon: the maximum of
///   (a) the idle floor Σ_t max(Σ_i P_idle^i − G_t, 0) — the platform draws
///       at least its idle power at every time unit; and
///   (b) the energy balance max(E_total − E_green, 0) with
///       E_total = Σ_i P_idle^i · T + Σ_u P_work^{proc(u)} · ω(u) and
///       E_green = Σ_j G_j · |I_j| — total demand is schedule-independent
///       and green energy can at best be used in full.
/// Used by the campaign engine to report per-instance optimality gaps.
Cost carbonLowerBound(const EnhancedGraph& gc, const PowerProfile& profile);

} // namespace cawo
