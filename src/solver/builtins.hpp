#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "solver/registry.hpp"

/// \file builtins.hpp
/// Per-family registration hooks for the built-in solvers. The canonical
/// registry order is: "ASAP", the 16 CaWoSched variants, "greenheft",
/// then the exact solvers "bnb" and "dp".

namespace cawo {

struct CaWoParams;
struct VariantRunStats;

/// "ASAP" and the 16 CaWoSched variants (src/core).
void registerCoreSolvers(SolverRegistry& registry);

/// Translate a CaWoSched variant run's phase diagnostics into the shared
/// solver stats vocabulary (greedy-us, ls-us, ls-rounds, ls-moves,
/// ls-probes, ls-initial-cost, ls-final-cost) — used by the core adapters
/// and the GreenHEFT second pass alike, so campaign records read one
/// schema.
void fillPhaseStats(const VariantRunStats& run,
                    std::map<std::string, std::int64_t>& stats);

/// The `block-size` (1..INT_MAX), `ls-radius` (>= 0), `ls-restarts`
/// (>= 1) and `ls-seed` options shared by the CaWoSched adapters and the
/// GreenHEFT second pass, validated when the options are read.
CaWoParams tuningFromOptions(const SolverOptions& options);

/// The two-pass "greenheft" pipeline (src/heft), alpha-parameterisable as
/// "greenheft[alpha]".
void registerHeftSolvers(SolverRegistry& registry);

/// The exact solvers: branch-and-bound "bnb" and the single-processor
/// dynamic program "dp" (src/exact).
void registerExactSolvers(SolverRegistry& registry);

} // namespace cawo
