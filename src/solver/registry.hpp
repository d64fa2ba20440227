#pragma once

#include <functional>
#include <string>
#include <vector>

#include "solver/solver.hpp"

/// \file registry.hpp
/// Name → factory registry over every scheduling algorithm in the repo.
///
/// The global registry self-registers the built-in solvers on first use:
/// "ASAP", the 16 CaWoSched variants ("slack" … "pressWR-LS"), the
/// two-pass "greenheft" pipeline, the exact branch-and-bound "bnb" and the
/// single-processor dynamic program "dp" — see DESIGN.md. New algorithms
/// (plugins, experiments) register additional factories through
/// `SolverRegistry::global().registerFactory` and immediately become
/// selectable in the runner, the CLI and every bench binary.
///
/// Lookup supports three forms:
///   * exact names                       — "pressWR-LS";
///   * bracket parameters                — "greenheft[0.25]" reaches the
///     "greenheft" factory, which parses the alpha;
///   * glob selection (`select`)         — "press*", "*-LS", "all", or a
///     comma-separated union of patterns.

namespace cawo {

class SolverRegistry {
public:
  /// A factory receives the *requested* name (which may carry a bracket
  /// parameter, e.g. "greenheft[0.25]") and returns a fresh solver.
  using Factory = std::function<SolverPtr(const std::string& requestedName)>;

  /// The process-wide registry, with the built-in solvers pre-registered.
  static SolverRegistry& global();

  /// Register a factory under `name`. Throws PreconditionError on
  /// duplicates — two algorithms must never shadow each other silently.
  void registerFactory(const std::string& name, Factory factory);

  /// True if `name` resolves — either an exact key or "key[param]" whose
  /// base key is registered.
  bool contains(const std::string& name) const;

  /// All registered names, in registration (canonical) order.
  std::vector<std::string> names() const;

  /// Instantiate the solver for `name` (exact or "key[param]" form).
  /// Throws PreconditionError for unknown names, listing the alternatives.
  SolverPtr create(const std::string& name) const;

  /// Expand a selection into registered names, preserving canonical order:
  /// "all" → every name; otherwise a comma-separated list whose entries
  /// are exact names, bracket-parameterised names, or globs with `*`/`?`.
  /// Throws PreconditionError when an entry matches nothing.
  std::vector<std::string> select(const std::string& pattern) const;

  SolverRegistry() = default;
  SolverRegistry(const SolverRegistry&) = delete;
  SolverRegistry& operator=(const SolverRegistry&) = delete;

private:
  const Factory* find(const std::string& name) const;

  std::vector<std::string> order_;             // canonical listing order
  std::vector<std::pair<std::string, Factory>> factories_;
};

/// Split "key[param]" → {key, param}; param is empty when absent.
/// Exposed for solvers that parse their own bracket parameter.
std::pair<std::string, std::string> splitBracketParam(const std::string& name);

/// Register the built-in algorithm families into `registry` (idempotent
/// only in the sense that global() calls it exactly once).
void registerBuiltinSolvers(SolverRegistry& registry);

} // namespace cawo
