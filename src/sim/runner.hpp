#pragma once

#include <string>
#include <vector>

#include "sim/instance.hpp"
#include "solver/registry.hpp"

/// \file runner.hpp
/// The two solver-selection rules every grid shares. The grid itself runs
/// through the campaign engine (exp/campaign_runner.hpp); these helpers
/// name the paper's figure set and decide which solvers an instance can
/// host, so the CLI, the campaign engine and the benches agree.

namespace cawo {

/// The bench/figure selection: "ASAP" followed by the 16 CaWoSched
/// variants in canonical order.
std::vector<std::string> suiteSolverNames();

/// True if a solver with these capabilities can run on the instance —
/// e.g. the single-processor "dp" does not fit a multi-processor enhanced
/// graph. Broad selections ("all") skip the same solvers everywhere.
bool solverFitsInstance(const SolverInfo& info, const Instance& instance);

} // namespace cawo
