#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "core/power_profile.hpp"
#include "util/spec.hpp"
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
/// The `ProfileSourceRegistry` is a `SpecRegistry` (util/spec.hpp), like
/// `ReschedulePolicyRegistry`: built-in sources self-register on first
/// use, new sources plug in through
/// `ProfileSourceRegistry::global().registerFactory`, and everything that
/// used to accept a scenario name — the campaign axis, the CLI, the bench
/// binaries — now accepts any registered spec. Grammar reference:
/// docs/formats.md.

namespace cawo {

/// A parsed profile spec: a `Spec` plus the `+noise=A[,seed=N]` modifier.
struct ProfileSpec : Spec {
  bool hasNoise = false;     ///< a `+noise` modifier was given
  double noise = 0.0;        ///< modifier amplitude, in [0, 1)
  bool hasNoiseSeed = false; ///< the modifier carried `seed=N`
  std::uint64_t noiseSeed = 0;

  /// Parse `name[:param,...][+noise=A[,seed=N]]`; throws PreconditionError
  /// on malformed input. Use `ProfileSourceRegistry::resolve` to also
  /// check that the source is registered.
  static ProfileSpec parse(const std::string& specText);

  /// Reassemble the spec string, modifier included (round-trip identity).
  std::string canonical() const;
};

/// The largest supported profile horizon, in time units. Synthetic
/// sources count their intervals in `int`, so a longer horizon (and so a
/// longer deadline) is rejected before any profile is generated.
inline constexpr Time kMaxHorizon = std::numeric_limits<std::int32_t>::max();

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

/// A generator receives the parsed spec (for its parameters and noise
/// modifier) and the request, and returns a profile covering exactly
/// [0, request.horizon).
using ProfileGenerator =
    std::function<PowerProfile(const ProfileSpec&, const ProfileRequest&)>;

/// Name → generator registry over every power-profile source.
class ProfileSourceRegistry : public SpecRegistry<ProfileGenerator> {
public:
  ProfileSourceRegistry();

  /// The process-wide registry, with the built-in sources pre-registered:
  /// the paper scenarios S1–S4, "constant", "sine", "ramp", "duck" and
  /// "trace".
  static ProfileSourceRegistry& global();

  /// Parse `specText` and check its source is registered. Throws
  /// PreconditionError listing every registered source and its syntax.
  ProfileSpec resolve(const std::string& specText) const;

  /// Generate the profile for an (already resolved) spec. The horizon
  /// must lie in [1, kMaxHorizon].
  PowerProfile generate(const ProfileSpec& spec,
                        const ProfileRequest& request) const;
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

/// Throw unless `actualSpec` is empty or `forecastSpec` has no `+noise`
/// modifier: the modifier *is* the forecast error, so with an explicit
/// actual it would silently change what the solver plans against.
void requireForecastWithoutNoise(const std::string& forecastSpec,
                                 const std::string& actualSpec);

/// The paper's four scenario names, in canonical order. The campaign key
/// `scenarios=all` expands to exactly this list.
const std::vector<std::string>& paperScenarioNames();

/// Register the built-in sources into `registry` (called once by
/// `global()`).
void registerBuiltinProfileSources(ProfileSourceRegistry& registry);

} // namespace cawo
