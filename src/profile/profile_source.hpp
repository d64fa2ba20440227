#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/power_profile.hpp"
#include "util/types.hpp"

/// \file profile_source.hpp
/// Spec-driven, pluggable power-profile sources.
///
/// Where `profile/scenario.hpp` hard-wires the paper's four synthetic
/// shapes, this layer makes the scenario axis *open*: a profile is
/// requested with a compact spec string that names a registered source and
/// its parameters, e.g.
///
///   S1                                  the paper's solar-day parabola
///   constant:level=0.6                  flat supply at 60 % of the band
///   sine:period=24,amp=0.5,phase=6     diurnal sine, period in intervals
///   ramp:from=0.2,to=0.9               linearly increasing supply
///   duck                                stylised duck-curve availability
///   trace:examples/grid_trace.csv       measured trace via profile_io
///
/// Every spec may carry a composable forecast-error modifier,
/// `+noise=A[,seed=N]`, that perturbs each interval's budget
/// multiplicatively by ±A (the paper's Section 6.1 noise model). The four
/// paper scenarios default to the request's perturbation (0.1) so legacy
/// behaviour is bit-identical; every other source is deterministic unless
/// a `+noise` modifier is given.
///
/// The `ProfileSourceRegistry` mirrors `SolverRegistry`: built-in sources
/// self-register on first use, new sources plug in through
/// `ProfileSourceRegistry::global().registerSource`, and everything that
/// used to accept a scenario name — the campaign axis, the CLI, the bench
/// binaries — now accepts any registered spec. Grammar reference:
/// docs/formats.md.

namespace cawo {

/// One `key=value` parameter of a profile spec; a bare value (e.g. the
/// CSV path in `trace:grid.csv`) is stored with an empty key.
struct ProfileParam {
  std::string key;
  std::string value;
};

/// A parsed profile spec: `source[:param,...][+noise=A[,seed=N]]`.
struct ProfileSpec {
  std::string source;                ///< registered source name
  std::vector<ProfileParam> params;  ///< in spec order, values verbatim
  bool hasNoise = false;             ///< a `+noise` modifier was given
  double noise = 0.0;                ///< modifier amplitude, in [0, 1)
  bool hasNoiseSeed = false;         ///< the modifier carried `seed=N`
  std::uint64_t noiseSeed = 0;
  std::string text;                  ///< the spec string, verbatim

  /// Parse a spec string; throws PreconditionError on malformed input
  /// (empty spec, dangling ':', parameter without a value, bad modifier).
  /// Parsing does not check that the source is registered — use
  /// `ProfileSourceRegistry::resolve` for that.
  static ProfileSpec parse(const std::string& specText);

  /// Reassemble the spec string from the parsed parts. Parsing the result
  /// yields the same spec (round-trip identity).
  std::string canonical() const;

  bool hasParam(const std::string& key) const;
  std::string param(const std::string& key,
                    const std::string& fallback) const;
  double paramDouble(const std::string& key, double fallback) const;
  std::int64_t paramInt(const std::string& key, std::int64_t fallback) const;
};

/// Everything a source needs to materialise a profile for one instance.
struct ProfileRequest {
  Time horizon = 0;     ///< the profile must cover [0, horizon)
  Power sumIdle = 0;    ///< Σ idle powers — the band floor g_min
  Power sumWork = 0;    ///< Σ working powers — g_max = g_min + 0.8·Σ work
  int numIntervals = 24; ///< intervals for synthetic shapes (traces keep
                         ///< their own interval structure)
  double perturbation = 0.1; ///< legacy S1–S4 noise when no `+noise` given
  std::uint64_t seed = 7;    ///< noise seed when the spec names none
};

/// Listing metadata for `--list-scenarios` and error messages.
struct ProfileSourceInfo {
  std::string name;        ///< registered source name
  std::string syntax;      ///< spec syntax, e.g. "sine:period=P,amp=A,..."
  std::string description; ///< one-line human description
};

/// Name → generator registry over every power-profile source.
class ProfileSourceRegistry {
public:
  /// A generator receives the parsed spec (for its parameters and noise
  /// modifier) and the request, and returns a profile covering exactly
  /// [0, request.horizon).
  using Generator =
      std::function<PowerProfile(const ProfileSpec&, const ProfileRequest&)>;

  /// The process-wide registry, with the built-in sources pre-registered:
  /// the paper scenarios S1–S4, "constant", "sine", "ramp", "duck" and
  /// "trace".
  static ProfileSourceRegistry& global();

  /// Register a source. Throws PreconditionError on duplicate names.
  void registerSource(ProfileSourceInfo info, Generator generator);

  bool contains(const std::string& source) const;

  /// All registered source names, in registration (canonical) order.
  std::vector<std::string> names() const;

  /// Listing metadata for a registered source; throws for unknown names.
  const ProfileSourceInfo& info(const std::string& source) const;

  /// Parse `specText` and check its source is registered. Throws
  /// PreconditionError listing every registered source and its syntax.
  ProfileSpec resolve(const std::string& specText) const;

  /// Generate the profile for an (already resolved) spec.
  PowerProfile generate(const ProfileSpec& spec,
                        const ProfileRequest& request) const;

  /// One-line enumeration of registered specs and syntax, used in error
  /// messages ("S1, S2, S3, S4, constant:level=L, ...").
  std::string syntaxSummary() const;

  ProfileSourceRegistry() = default;
  ProfileSourceRegistry(const ProfileSourceRegistry&) = delete;
  ProfileSourceRegistry& operator=(const ProfileSourceRegistry&) = delete;

private:
  struct Entry {
    ProfileSourceInfo info;
    Generator generator;
  };
  const Entry* find(const std::string& source) const;

  std::vector<Entry> entries_; // registration order == listing order
};

/// Resolve `specText` against the global registry and generate the
/// profile — the one-call path used by `sim/instance` and the CLI.
PowerProfile generateProfile(const std::string& specText,
                             const ProfileRequest& request);

/// A forecast/actual profile pair for the online execution engine.
struct ProfilePair {
  PowerProfile forecast; ///< what the solver plans against
  PowerProfile actual;   ///< what execution is billed against
};

/// Resolve a forecast/actual pair from *one* spec: the `+noise` modifier
/// is read as forecast error, so the forecast is the spec with the
/// modifier stripped (for the paper scenarios that keeps the legacy
/// Section-6.1 shape, bit-identical to the offline instance profile) and
/// the actual is the spec as written. Without a `+noise` modifier both
/// profiles are identical. See docs/formats.md, "Forecast vs actual".
ProfilePair generateForecastActualPair(const std::string& specText,
                                       const ProfileRequest& request);

/// The paper's four scenario names, in canonical order. The campaign key
/// `scenarios=all` expands to exactly this list.
const std::vector<std::string>& paperScenarioNames();

/// Split a comma-separated scenario-axis value into individual specs.
/// Commas also separate parameters *inside* a spec, so fragments that
/// contain '=' or start with '+' are glued onto the preceding spec:
/// "S1,sine:period=24,amp=0.5,duck" → {"S1", "sine:period=24,amp=0.5",
/// "duck"}. Bare source names never contain '='.
std::vector<std::string> splitSpecList(const std::string& value);

/// Register the built-in sources into `registry` (called once by
/// `global()`).
void registerBuiltinProfileSources(ProfileSourceRegistry& registry);

} // namespace cawo
