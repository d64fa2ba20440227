#include "profile/profile_source.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <map>
#include <mutex>

#include "profile/profile_io.hpp"
#include "profile/scenario.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace cawo {

namespace {

constexpr const char* kNoiseMarker = "+noise=";

/// Shortest decimal form that parses back to exactly the same double —
/// keeps ProfileSpec::canonical() a true round-trip.
std::string shortestDouble(double v) {
  char buffer[32];
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), v);
  CAWO_ASSERT(ec == std::errc{}, "double formatting failed");
  return std::string(buffer, ptr);
}

} // namespace

ProfileSpec ProfileSpec::parse(const std::string& specText) {
  const std::string text{trim(specText)};
  const std::size_t plus = text.find(kNoiseMarker);
  ProfileSpec spec;
  static_cast<Spec&>(spec) = Spec::parse(text, plus);
  if (plus == std::string::npos) return spec;

  const std::string where = "spec \"" + text + "\"";
  const std::vector<std::string> tokens =
      split(text.substr(plus + std::strlen(kNoiseMarker)), ',');
  spec.hasNoise = true;
  spec.noise = parseDoubleStrict(where + ": noise amplitude",
                                 std::string{trim(tokens.front())});
  CAWO_REQUIRE(spec.noise >= 0.0 && spec.noise < 1.0,
               where + ": noise amplitude must be in [0, 1)");
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::string token{trim(tokens[i])};
    CAWO_REQUIRE(startsWith(token, "seed="),
                 where + ": unknown noise-modifier token \"" + token +
                     "\" (expected seed=N)");
    CAWO_REQUIRE(!spec.hasNoiseSeed,
                 where + ": duplicate seed= in the noise modifier");
    spec.hasNoiseSeed = true;
    spec.noiseSeed = parseUint64Strict(where + ": noise seed", token.substr(5));
  }
  return spec;
}

std::string ProfileSpec::canonical() const {
  std::string out = Spec::canonical();
  if (hasNoise) {
    out += kNoiseMarker + shortestDouble(noise);
    if (hasNoiseSeed) out += ",seed=" + std::to_string(noiseSeed);
  }
  return out;
}

ProfileSourceRegistry::ProfileSourceRegistry()
    : SpecRegistry("profile source",
                   "; each optionally followed by +noise=A[,seed=N]") {}

ProfileSourceRegistry& ProfileSourceRegistry::global() {
  static ProfileSourceRegistry* instance = [] {
    auto* r = new ProfileSourceRegistry();
    registerBuiltinProfileSources(*r);
    return r;
  }();
  return *instance;
}

ProfileSpec ProfileSourceRegistry::resolve(const std::string& specText) const {
  ProfileSpec spec = ProfileSpec::parse(specText);
  (void)factory(spec);
  return spec;
}

PowerProfile ProfileSourceRegistry::generate(
    const ProfileSpec& spec, const ProfileRequest& request) const {
  CAWO_REQUIRE(request.horizon > 0, "profile horizon must be positive");
  PowerProfile profile = factory(spec)(spec, request);
  CAWO_ASSERT(profile.horizon() == request.horizon,
              "profile source \"" + spec.name +
                  "\" produced a profile of horizon " +
                  std::to_string(profile.horizon()) +
                  " instead of the requested " +
                  std::to_string(request.horizon));
  return profile;
}

PowerProfile generateProfile(const std::string& specText,
                             const ProfileRequest& request) {
  const ProfileSourceRegistry& registry = ProfileSourceRegistry::global();
  return registry.generate(registry.resolve(specText), request);
}

ProfilePair generateForecastActualPair(const std::string& specText,
                                       const ProfileRequest& request) {
  const ProfileSourceRegistry& registry = ProfileSourceRegistry::global();
  const ProfileSpec spec = registry.resolve(specText);

  ProfileSpec forecastSpec = spec;
  forecastSpec.hasNoise = false;
  forecastSpec.noise = 0.0;
  forecastSpec.hasNoiseSeed = false;
  forecastSpec.noiseSeed = 0;
  forecastSpec.text = forecastSpec.canonical();

  ProfilePair pair;
  pair.forecast = registry.generate(forecastSpec, request);
  pair.actual =
      spec.hasNoise ? registry.generate(spec, request) : pair.forecast;
  return pair;
}

void requireForecastWithoutNoise(const std::string& forecastSpec,
                                 const std::string& actualSpec) {
  CAWO_REQUIRE(actualSpec.empty() || !ProfileSpec::parse(forecastSpec).hasNoise,
               "the forecast spec \"" + forecastSpec +
                   "\" carries a +noise modifier (read as forecast error) "
                   "AND an explicit actual \"" + actualSpec +
                   "\" was given — drop one of the two");
}

const std::vector<std::string>& paperScenarioNames() {
  static const std::vector<std::string> names{"S1", "S2", "S3", "S4"};
  return names;
}

// ---------------------------------------------------------------------------
// Built-in sources
// ---------------------------------------------------------------------------

namespace {

/// Noise options for the paper scenarios: Section 6.1 perturbation by
/// default, overridden by an explicit "+noise" modifier.
ScenarioOptions legacyNoise(const ProfileSpec& spec,
                            const ProfileRequest& req) {
  ScenarioOptions opts;
  opts.numIntervals = req.numIntervals;
  opts.perturbation = spec.hasNoise ? spec.noise : req.perturbation;
  opts.seed = spec.hasNoiseSeed ? spec.noiseSeed : req.seed;
  return opts;
}

/// Noise options for the new shape sources: deterministic unless the spec
/// carries a "+noise" modifier.
ScenarioOptions shapeNoise(const ProfileSpec& spec,
                           const ProfileRequest& req) {
  ScenarioOptions opts = legacyNoise(spec, req);
  if (!spec.hasNoise) opts.perturbation = 0.0;
  return opts;
}

PowerProfile constantSource(const ProfileSpec& spec,
                            const ProfileRequest& req) {
  spec.requireKnownParams({"level"});
  const double level = spec.paramDouble("level", 0.5);
  CAWO_REQUIRE(level >= 0.0 && level <= 1.0,
               "profile spec \"" + spec.text +
                   "\": level must be in [0, 1]");
  return profileFromShape([level](double) { return level; }, req.horizon,
                          req.sumIdle, req.sumWork, shapeNoise(spec, req));
}

PowerProfile sineSource(const ProfileSpec& spec, const ProfileRequest& req) {
  spec.requireKnownParams({"period", "amp", "phase", "mid"});
  // Period and phase are measured in profile intervals, so with the
  // default 24 intervals "period=24,phase=6" reads as a 24 h day starting
  // six hours in — matching how the paper treats the horizon.
  const int J = std::min<int>(req.numIntervals,
                              static_cast<int>(req.horizon));
  const double period = spec.paramDouble("period", static_cast<double>(J));
  const double amp = spec.paramDouble("amp", 0.5);
  const double phase = spec.paramDouble("phase", 0.0);
  const double mid = spec.paramDouble("mid", 0.5);
  CAWO_REQUIRE(period > 0.0,
               "profile spec \"" + spec.text + "\": period must be positive");
  CAWO_REQUIRE(amp >= 0.0 && amp <= 1.0,
               "profile spec \"" + spec.text + "\": amp must be in [0, 1]");
  CAWO_REQUIRE(mid >= 0.0 && mid <= 1.0,
               "profile spec \"" + spec.text + "\": mid must be in [0, 1]");
  constexpr double kTwoPi = 2.0 * 3.14159265358979323846;
  return profileFromShape(
      [=](double x) {
        const double u = x * static_cast<double>(J); // interval units
        return mid + amp * std::sin(kTwoPi * (u - phase) / period);
      },
      req.horizon, req.sumIdle, req.sumWork, shapeNoise(spec, req));
}

PowerProfile rampSource(const ProfileSpec& spec, const ProfileRequest& req) {
  spec.requireKnownParams({"from", "to"});
  const double from = spec.paramDouble("from", 0.0);
  const double to = spec.paramDouble("to", 1.0);
  CAWO_REQUIRE(from >= 0.0 && from <= 1.0 && to >= 0.0 && to <= 1.0,
               "profile spec \"" + spec.text +
                   "\": from/to must be in [0, 1]");
  return profileFromShape(
      [=](double x) { return from + (to - from) * x; }, req.horizon,
      req.sumIdle, req.sumWork, shapeNoise(spec, req));
}

/// Stylised duck-curve *availability*: the inverse of the famous net-load
/// duck — plenty of headroom in the midday solar belly, a deep trough
/// during the evening ramp (x ≈ 0.8 of the day), modest supply overnight.
double duckShape(double x) {
  const auto bump = [](double x0, double width, double x1) {
    const double d = (x1 - x0) / width;
    return std::exp(-d * d);
  };
  return 0.35 + 0.55 * bump(0.54, 0.16, x) - 0.25 * bump(0.80, 0.07, x);
}

PowerProfile duckSource(const ProfileSpec& spec, const ProfileRequest& req) {
  spec.requireKnownParams({});
  return profileFromShape(duckShape, req.horizon, req.sumIdle, req.sumWork,
                          shapeNoise(spec, req));
}

PowerProfile traceSource(const ProfileSpec& spec, const ProfileRequest& req) {
  spec.requireKnownParams({"path", "repeat", "scale", "normalize"},
                          /*allowBare=*/true);
  std::string path = spec.param("path", "");
  for (const SpecParam& p : spec.params)
    if (p.key.empty()) {
      CAWO_REQUIRE(path.empty(), "profile spec \"" + spec.text +
                                     "\": both a positional path and "
                                     "path= were given");
      path = p.value;
    }
  CAWO_REQUIRE(!path.empty(), "profile spec \"" + spec.text +
                                  "\": trace needs a CSV path "
                                  "(trace:file.csv or trace:path=file.csv)");
  const bool repeat = spec.paramInt("repeat", 0) != 0;
  const bool normalize = spec.paramInt("normalize", 0) != 0;
  const double scale = spec.paramDouble("scale", 1.0);
  CAWO_REQUIRE(scale > 0.0,
               "profile spec \"" + spec.text + "\": scale must be positive");
  CAWO_REQUIRE(!(normalize && spec.hasParam("scale")),
               "profile spec \"" + spec.text +
                   "\": scale and normalize are mutually exclusive");

  // Campaigns build one instance per cell, each calling this generator;
  // the trace file is immutable within a run, so parse it once per path
  // (the cache is process-lifetime — editing a CSV mid-process is not
  // supported).
  const PowerProfile raw = [&path] {
    static std::mutex mutex;
    static std::map<std::string, PowerProfile> cache;
    const std::lock_guard<std::mutex> lock(mutex);
    auto it = cache.find(path);
    if (it == cache.end())
      it = cache.emplace(path, readProfileCsvFile(path)).first;
    return it->second;
  }();
  CAWO_REQUIRE(repeat || raw.horizon() >= req.horizon,
               "trace \"" + path + "\" covers only " +
                   std::to_string(raw.horizon()) +
                   " of the requested horizon " +
                   std::to_string(req.horizon) +
                   " — extend the CSV or add repeat=1 to tile it");

  // Tile (if requested) and clip to exactly [0, horizon).
  std::vector<Time> lengths;
  std::vector<Power> greens;
  Time covered = 0;
  for (std::size_t j = 0; covered < req.horizon; ++j) {
    const Interval& iv = raw.interval(j % raw.numIntervals());
    const Time len = std::min<Time>(iv.length(), req.horizon - covered);
    lengths.push_back(len);
    greens.push_back(iv.green);
    covered += len;
  }

  if (normalize) {
    // Map the trace's own value range onto the instance's power band, so
    // traces in arbitrary units (gCO2/kWh, MW, ...) stay meaningful for
    // any platform. The range comes from the *full* trace, not the
    // horizon-clipped window, so one spec calibrates identically across
    // every deadline factor of a campaign. A flat trace sits at the band
    // midpoint.
    const Power gMin = req.sumIdle;
    const Power gMax = req.sumIdle + (8 * req.sumWork) / 10;
    Power lo = raw.interval(0).green, hi = lo;
    for (const Interval& iv : raw.intervals()) {
      lo = std::min(lo, iv.green);
      hi = std::max(hi, iv.green);
    }
    for (Power& g : greens) {
      g = hi == lo
              ? gMin + (gMax - gMin) / 2
              : static_cast<Power>(std::llround(
                    static_cast<double>(gMin) +
                    static_cast<double>(g - lo) *
                        static_cast<double>(gMax - gMin) /
                        static_cast<double>(hi - lo)));
    }
  } else if (scale != 1.0) {
    for (Power& g : greens)
      g = static_cast<Power>(std::llround(static_cast<double>(g) * scale));
  }

  if (spec.hasNoise && spec.noise > 0.0) {
    Rng rng(spec.hasNoiseSeed ? spec.noiseSeed : req.seed);
    for (Power& g : greens) {
      const double f = 1.0 + rng.uniformReal(-spec.noise, spec.noise);
      g = std::max<Power>(
          0, static_cast<Power>(std::llround(static_cast<double>(g) * f)));
    }
  }

  PowerProfile out;
  for (std::size_t j = 0; j < lengths.size(); ++j)
    out.appendInterval(lengths[j], greens[j]);
  return out;
}

} // namespace

void registerBuiltinProfileSources(ProfileSourceRegistry& registry) {
  struct PaperScenario {
    Scenario scenario;
    const char* description;
  };
  // Thin wrappers over generateScenario, so the S1–S4 profiles stay
  // bit-identical to the pre-registry generator (pinned by golden tests).
  for (const PaperScenario& ps :
       {PaperScenario{Scenario::S1,
                      "inverted parabola — solar day, midday peak (paper)"},
        PaperScenario{Scenario::S2,
                      "decreasing parabola — observed from midday (paper)"},
        PaperScenario{Scenario::S3,
                      "24 h sine starting low — broad daylight bump (paper)"},
        PaperScenario{Scenario::S4,
                      "constant — storage/nuclear supply (paper)"}}) {
    const std::string name = scenarioName(ps.scenario);
    const Scenario scenario = ps.scenario;
    registry.registerFactory(
        {name, name, ps.description},
        [scenario](const ProfileSpec& spec, const ProfileRequest& req) {
          spec.requireKnownParams({});
          return generateScenario(scenario, req.horizon, req.sumIdle,
                                  req.sumWork, legacyNoise(spec, req));
        });
  }
  registry.registerFactory(
      {"constant", "constant:level=L",
       "flat supply at fraction L of the power band (default 0.5)"},
      constantSource);
  registry.registerFactory(
      {"sine", "sine:period=P,amp=A,phase=F,mid=M",
       "diurnal sine; period/phase in profile intervals (defaults: one "
       "full cycle, amp 0.5)"},
      sineSource);
  registry.registerFactory(
      {"ramp", "ramp:from=A,to=B",
       "linear supply ramp across the horizon (defaults 0 → 1)"},
      rampSource);
  registry.registerFactory(
      {"duck", "duck",
       "stylised duck-curve availability: solar belly, evening trough"},
      duckSource);
  registry.registerFactory(
      {"trace", "trace:file.csv[,repeat=1][,scale=X|normalize=1]",
       "measured grid/PV trace from a profile CSV (see docs/formats.md)"},
      traceSource);
}

} // namespace cawo
