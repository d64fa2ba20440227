// The spec-driven profile-source layer (profile/profile_source.hpp):
// spec parsing and round-trips, rejection of malformed specs, the
// registry's resolution and error reporting, scenario-axis list
// splitting, the behaviour of every built-in source (including trace
// tiling/scaling/normalisation and the "+noise" modifier), a property
// test over all registered sources, and byte-exact golden parity of the
// S1–S4 profiles against the pre-registry generator.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "exp/campaign.hpp"
#include "exp/campaign_runner.hpp"
#include "exp/json.hpp"
#include "profile/profile_io.hpp"
#include "profile/profile_source.hpp"
#include "profile/scenario.hpp"
#include "sim/instance.hpp"
#include "util/require.hpp"

namespace cawo {
namespace {

ProfileRequest testRequest(Time horizon = 240) {
  ProfileRequest req;
  req.horizon = horizon;
  req.sumIdle = 100;
  req.sumWork = 200;
  req.numIntervals = 12;
  req.seed = 42;
  return req;
}

constexpr Power kMin = 100;                    // Σ idle
constexpr Power kMax = 100 + (8 * 200) / 10;   // Σ idle + 80 % work

/// Write a small trace CSV into gtest's temp dir and return its path.
std::string writeTempTrace(const std::string& name,
                           const std::vector<std::pair<Time, Power>>& ivs) {
  const std::string path = ::testing::TempDir() + name;
  PowerProfile p;
  for (const auto& [len, green] : ivs) p.appendInterval(len, green);
  writeProfileCsvFile(path, p);
  return path;
}

// ---------------------------------------------------------------------------
// Spec parsing
// ---------------------------------------------------------------------------

TEST(ProfileSpec, ParsesBareSourceNames) {
  const ProfileSpec spec = ProfileSpec::parse("S1");
  EXPECT_EQ(spec.name, "S1");
  EXPECT_TRUE(spec.params.empty());
  EXPECT_FALSE(spec.hasNoise);
  EXPECT_EQ(spec.text, "S1");
}

TEST(ProfileSpec, ParsesParametersAndPositionals) {
  const ProfileSpec sine =
      ProfileSpec::parse("sine:period=24,amp=0.5,phase=6");
  EXPECT_EQ(sine.name, "sine");
  ASSERT_EQ(sine.params.size(), 3u);
  EXPECT_EQ(sine.param("period", ""), "24");
  EXPECT_DOUBLE_EQ(sine.paramDouble("amp", 0.0), 0.5);
  EXPECT_EQ(sine.paramInt("phase", 0), 6);
  EXPECT_FALSE(sine.hasParam("mid"));
  EXPECT_DOUBLE_EQ(sine.paramDouble("mid", 0.25), 0.25);

  const ProfileSpec trace =
      ProfileSpec::parse("trace:examples/grid_trace.csv,repeat=1");
  EXPECT_EQ(trace.name, "trace");
  ASSERT_EQ(trace.params.size(), 2u);
  EXPECT_EQ(trace.params[0].key, "");
  EXPECT_EQ(trace.params[0].value, "examples/grid_trace.csv");
  EXPECT_EQ(trace.paramInt("repeat", 0), 1);
}

TEST(ProfileSpec, ParsesNoiseModifier) {
  const ProfileSpec plain = ProfileSpec::parse("duck+noise=0.2");
  EXPECT_EQ(plain.name, "duck");
  EXPECT_TRUE(plain.hasNoise);
  EXPECT_DOUBLE_EQ(plain.noise, 0.2);
  EXPECT_FALSE(plain.hasNoiseSeed);

  const ProfileSpec seeded =
      ProfileSpec::parse("ramp:from=0.2,to=0.9+noise=0.1,seed=77");
  EXPECT_EQ(seeded.name, "ramp");
  ASSERT_EQ(seeded.params.size(), 2u);
  EXPECT_DOUBLE_EQ(seeded.paramDouble("to", 0.0), 0.9);
  EXPECT_TRUE(seeded.hasNoise);
  EXPECT_DOUBLE_EQ(seeded.noise, 0.1);
  EXPECT_TRUE(seeded.hasNoiseSeed);
  EXPECT_EQ(seeded.noiseSeed, 77u);
}

TEST(ProfileSpec, CanonicalRoundTrips) {
  for (const char* text :
       {"S1", "constant:level=0.6", "sine:period=24,amp=0.5,phase=6",
        "ramp:from=0.2,to=0.9", "duck", "trace:examples/grid_trace.csv",
        "trace:path=g.csv,repeat=1,normalize=1", "S2+noise=0.25,seed=9",
        "duck+noise=0.1", "duck+noise=0.123456789"}) {
    const ProfileSpec spec = ProfileSpec::parse(text);
    const ProfileSpec again = ProfileSpec::parse(spec.canonical());
    EXPECT_EQ(again.name, spec.name) << text;
    ASSERT_EQ(again.params.size(), spec.params.size()) << text;
    for (std::size_t i = 0; i < spec.params.size(); ++i) {
      EXPECT_EQ(again.params[i].key, spec.params[i].key) << text;
      EXPECT_EQ(again.params[i].value, spec.params[i].value) << text;
    }
    EXPECT_EQ(again.hasNoise, spec.hasNoise) << text;
    EXPECT_DOUBLE_EQ(again.noise, spec.noise) << text;
    EXPECT_EQ(again.hasNoiseSeed, spec.hasNoiseSeed) << text;
    EXPECT_EQ(again.noiseSeed, spec.noiseSeed) << text;
  }
  // Policy specs share the grammar, so they round-trip through Spec.
  for (const char* text :
       {"static", "periodic:every=4", "reactive:threshold=0.15",
        " periodic : every = 2 ", "periodic:every"}) {
    const Spec spec = Spec::parse(text);
    const Spec again = Spec::parse(spec.canonical());
    EXPECT_EQ(again.name, spec.name) << text;
    ASSERT_EQ(again.params.size(), spec.params.size()) << text;
    for (std::size_t i = 0; i < spec.params.size(); ++i) {
      EXPECT_EQ(again.params[i].key, spec.params[i].key) << text;
      EXPECT_EQ(again.params[i].value, spec.params[i].value) << text;
    }
    EXPECT_EQ(again.canonical(), spec.canonical()) << text;
  }
}

TEST(ProfileSpec, RejectsMalformedSpecs) {
  EXPECT_THROW((void)ProfileSpec::parse(""), PreconditionError);
  EXPECT_THROW((void)ProfileSpec::parse("   "), PreconditionError);
  EXPECT_THROW((void)ProfileSpec::parse("sine:"), PreconditionError);
  EXPECT_THROW((void)ProfileSpec::parse(":level=0.5"), PreconditionError);
  EXPECT_THROW((void)ProfileSpec::parse("constant:=0.5"),
               PreconditionError);
  EXPECT_THROW((void)ProfileSpec::parse("constant:level="),
               PreconditionError);
  EXPECT_THROW((void)ProfileSpec::parse("sine:amp=0.5,,period=4"),
               PreconditionError);
  EXPECT_THROW((void)ProfileSpec::parse("S1+noise="), PreconditionError);
  EXPECT_THROW((void)ProfileSpec::parse("S1+noise=abc"), PreconditionError);
  EXPECT_THROW((void)ProfileSpec::parse("S1+noise=1.5"), PreconditionError);
  EXPECT_THROW((void)ProfileSpec::parse("S1+noise=0.1,sid=3"),
               PreconditionError);
  EXPECT_THROW((void)ProfileSpec::parse("S1+noise=0.1,seed=-3"),
               PreconditionError);
  EXPECT_THROW((void)ProfileSpec::parse("+noise=0.1"), PreconditionError);
  // Duplicates would silently run with the first value only.
  EXPECT_THROW((void)ProfileSpec::parse("sine:amp=0.3,amp=0.6"),
               PreconditionError);
  EXPECT_THROW((void)ProfileSpec::parse("S1+noise=0.1,seed=2,seed=3"),
               PreconditionError);
}

// ---------------------------------------------------------------------------
// Axis-list splitting
// ---------------------------------------------------------------------------

TEST(SplitSpecList, GluesParameterFragmentsToTheirSpec) {
  EXPECT_EQ(splitSpecList("S1,S2"),
            (std::vector<std::string>{"S1", "S2"}));
  EXPECT_EQ(
      splitSpecList("S1,sine:period=24,amp=0.5,duck"),
      (std::vector<std::string>{"S1", "sine:period=24,amp=0.5", "duck"}));
  EXPECT_EQ(splitSpecList(
                "duck+noise=0.2,seed=4,trace:g.csv,repeat=1,S3"),
            (std::vector<std::string>{"duck+noise=0.2,seed=4",
                                      "trace:g.csv,repeat=1", "S3"}));
  EXPECT_EQ(splitSpecList(" S4 "), (std::vector<std::string>{"S4"}));
  EXPECT_TRUE(splitSpecList("").empty());
  // A parameter fragment with no spec to attach to is an error, not a
  // silently invented scenario.
  EXPECT_THROW((void)splitSpecList("amp=0.5,S1"), PreconditionError);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(ProfileSourceRegistry, ListsBuiltinsInCanonicalOrder) {
  const auto names = ProfileSourceRegistry::global().names();
  EXPECT_EQ(names,
            (std::vector<std::string>{"S1", "S2", "S3", "S4", "constant",
                                      "sine", "ramp", "duck", "trace"}));
  EXPECT_TRUE(ProfileSourceRegistry::global().contains("duck"));
  EXPECT_FALSE(ProfileSourceRegistry::global().contains("S5"));
}

TEST(ProfileSourceRegistry, ResolveRejectsUnknownSourcesListingSyntax) {
  try {
    (void)ProfileSourceRegistry::global().resolve("solar:tilt=30");
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("solar"), std::string::npos);
    EXPECT_NE(message.find("constant:level=L"), std::string::npos);
    EXPECT_NE(message.find("+noise=A"), std::string::npos);
  }
}

TEST(ProfileSourceRegistry, RejectsDuplicateAndMalformedRegistrations) {
  ProfileSourceRegistry registry;
  const auto gen = [](const ProfileSpec&, const ProfileRequest& req) {
    return PowerProfile::uniform(req.horizon, 1);
  };
  registry.registerFactory({"mine", "mine", "test"}, gen);
  EXPECT_THROW(registry.registerFactory({"mine", "mine", "again"}, gen),
               PreconditionError);
  EXPECT_THROW(registry.registerFactory({"", "x", "x"}, gen),
               PreconditionError);
  EXPECT_THROW(registry.registerFactory({"a:b", "x", "x"}, gen),
               PreconditionError);
  EXPECT_EQ(registry.names(), (std::vector<std::string>{"mine"}));
}

TEST(ProfileSourceRegistry, GeneratorsMustCoverTheHorizonExactly) {
  ProfileSourceRegistry registry;
  registry.registerFactory(
      {"short", "short", "covers half the horizon"},
      [](const ProfileSpec&, const ProfileRequest& req) {
        return PowerProfile::uniform(req.horizon / 2, 1);
      });
  EXPECT_THROW(
      (void)registry.generate(ProfileSpec::parse("short"), testRequest()),
      InvariantError);
}

TEST(ProfileSourceRegistry, UnknownParametersAreRejectedPerSource) {
  EXPECT_THROW((void)generateProfile("constant:lvel=0.6", testRequest()),
               PreconditionError);
  EXPECT_THROW((void)generateProfile("S1:level=0.5", testRequest()),
               PreconditionError);
  EXPECT_THROW((void)generateProfile("duck:period=3", testRequest()),
               PreconditionError);
  EXPECT_THROW((void)generateProfile("constant:0.5", testRequest()),
               PreconditionError); // bare values only for trace
  // Non-finite numbers would clamp every interval to the band floor.
  for (const char* spec :
       {"sine:phase=nan", "sine:phase=inf", "sine:period=-inf",
        "constant:level=nan", "ramp:from=nan", "sine:amp=1e999",
        "trace:x.csv,scale=inf"}) {
    try {
      (void)generateProfile(spec, testRequest());
      ADD_FAILURE() << spec << " was accepted";
    } catch (const PreconditionError& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find(spec), std::string::npos) << message;
      EXPECT_NE(message.find("is not a finite number"), std::string::npos)
          << message;
    }
  }
  // A trace takes one positional path: a second bare value is a key that
  // lost its `=value`, not a clash with `path=`.
  const auto messageOf = [](const char* spec) {
    try {
      (void)generateProfile(spec, testRequest());
    } catch (const PreconditionError& e) {
      return std::string(e.what());
    }
    return std::string("(accepted)");
  };
  const std::string stray = messageOf("trace:examples/grid_trace.csv,repe");
  EXPECT_NE(stray.find("trace takes one positional path, so \"repe\" needs "
                       "key=value"),
            std::string::npos)
      << stray;
  EXPECT_EQ(stray.find("path="), std::string::npos) << stray;
  const std::string both = messageOf("trace:a.csv,path=b.csv");
  EXPECT_NE(both.find("both a positional path and path= were given"),
            std::string::npos)
      << both;
}

// Synthetic sources count intervals in `int`: a horizon past kMaxHorizon
// is rejected up front instead of narrowing (2^32 would narrow to 0
// intervals and divide by zero), while kMaxHorizon itself still generates.
TEST(ProfileSourceRegistry, HorizonAboveTheBoundIsRejected) {
  for (const char* spec : {"S1", "sine:period=12", "constant:level=0.5"}) {
    try {
      (void)generateProfile(spec, testRequest(Time{1} << 32));
      ADD_FAILURE() << spec << " generated a 2^32 horizon";
    } catch (const PreconditionError& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("profile horizon 4294967296 exceeds the largest "
                             "supported horizon 2147483647"),
                std::string::npos)
          << message;
    }
  }
  ProfileRequest widest = testRequest(kMaxHorizon);
  widest.numIntervals = 24;
  const PowerProfile profile = generateProfile("S1", widest);
  EXPECT_EQ(profile.numIntervals(), 24u);
  EXPECT_EQ(profile.horizon(), kMaxHorizon);
}

// `scenarioFromName` stays the closed-enum accessor, but its error now
// advertises the open spec grammar.
TEST(ProfileSourceRegistry, ScenarioFromNameErrorListsRegisteredSpecs) {
  try {
    (void)scenarioFromName("S9");
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("sine:period="), std::string::npos);
    EXPECT_NE(message.find("trace:file.csv"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Property test over every registered source
// ---------------------------------------------------------------------------

TEST(ProfileSourceProperty, EverySourceCoversTheHorizonContiguously) {
  const std::string tracePath = writeTempTrace(
      "property_trace.csv", {{7, 30}, {11, 0}, {5, 90}});
  for (const std::string& name : ProfileSourceRegistry::global().names()) {
    const std::string spec =
        name == "trace" ? "trace:" + tracePath + ",repeat=1" : name;
    for (const Time horizon : {Time{1}, Time{7}, Time{240}, Time{1001}}) {
      const PowerProfile p = generateProfile(spec, testRequest(horizon));
      EXPECT_EQ(p.horizon(), horizon) << spec;
      Time expectedBegin = 0;
      for (const Interval& iv : p.intervals()) {
        EXPECT_EQ(iv.begin, expectedBegin) << spec << " horizon " << horizon;
        EXPECT_GT(iv.length(), 0) << spec;
        EXPECT_GE(iv.green, 0) << spec;
        expectedBegin = iv.end;
      }
      EXPECT_EQ(expectedBegin, horizon) << spec;
    }
  }
}

TEST(ProfileSourceProperty, ShapeSourcesStayInsideThePowerBand) {
  for (const char* spec :
       {"S1", "S2", "S3", "S4", "constant:level=0.8", "sine:amp=0.9",
        "ramp:from=0.1,to=1.0", "duck", "duck+noise=0.3"}) {
    const PowerProfile p = generateProfile(spec, testRequest());
    for (const Interval& iv : p.intervals()) {
      EXPECT_GE(iv.green, kMin) << spec;
      EXPECT_LE(iv.green, kMax) << spec;
    }
  }
}

TEST(ProfileSourceProperty, GenerationIsDeterministicPerSeed) {
  for (const char* spec : {"S1", "duck+noise=0.2", "sine:amp=0.4+noise=0.1"}) {
    const PowerProfile a = generateProfile(spec, testRequest());
    const PowerProfile b = generateProfile(spec, testRequest());
    ASSERT_EQ(a.numIntervals(), b.numIntervals()) << spec;
    for (std::size_t j = 0; j < a.numIntervals(); ++j)
      EXPECT_EQ(a.interval(j).green, b.interval(j).green) << spec;
  }
}

// A spec with an explicit `seed=` must be bit-identical no matter which
// surface resolved it: direct registry resolution, the one-call
// generateProfile path, and campaign-style splitSpecList axis expansion
// (where the spec's own commas are re-glued) all feed the same generator
// with the same seed — and the request's seed must not leak in.
TEST(ProfileSourceProperty, ExplicitNoiseSeedIsDeterministicAcrossSurfaces) {
  for (const char* specText :
       {"S1+noise=0.2,seed=77", "duck+noise=0.3,seed=77",
        "sine:period=6,amp=0.4+noise=0.25,seed=77"}) {
    const ProfileSourceRegistry& registry = ProfileSourceRegistry::global();

    // Direct resolution.
    const PowerProfile direct =
        registry.generate(registry.resolve(specText), testRequest());

    // Axis expansion: the spec travels through a comma-separated scenario
    // list and must come back out verbatim.
    const std::vector<std::string> axis =
        splitSpecList(std::string("S4,") + specText + ",constant:level=0.5");
    ASSERT_EQ(axis.size(), 3u) << specText;
    ASSERT_EQ(axis[1], specText);
    const PowerProfile viaAxis = generateProfile(axis[1], testRequest());

    // A different request seed must not change anything — the explicit
    // spec seed wins.
    ProfileRequest otherSeed = testRequest();
    otherSeed.seed = 0xDEADBEEFULL;
    const PowerProfile viaOtherRequest = generateProfile(specText, otherSeed);

    ASSERT_EQ(direct.numIntervals(), viaAxis.numIntervals()) << specText;
    ASSERT_EQ(direct.numIntervals(), viaOtherRequest.numIntervals())
        << specText;
    for (std::size_t j = 0; j < direct.numIntervals(); ++j) {
      const Interval& iv = direct.interval(j);
      EXPECT_EQ(iv.begin, viaAxis.interval(j).begin) << specText;
      EXPECT_EQ(iv.green, viaAxis.interval(j).green) << specText;
      EXPECT_EQ(iv.green, viaOtherRequest.interval(j).green) << specText;
    }
  }
}

// ---------------------------------------------------------------------------
// Golden parity of the paper scenarios
// ---------------------------------------------------------------------------

TEST(ProfileSourceGolden, PaperScenariosMatchGenerateScenarioBitForBit) {
  for (int s = 0; s < 4; ++s) {
    const auto scenario = static_cast<Scenario>(s);
    const PowerProfile expected =
        generateScenario(scenario, 240, 100, 200, {12, 0.1, 42});
    const PowerProfile actual =
        generateProfile(scenarioName(scenario), testRequest());
    ASSERT_EQ(actual.numIntervals(), expected.numIntervals());
    for (std::size_t j = 0; j < expected.numIntervals(); ++j) {
      EXPECT_EQ(actual.interval(j).begin, expected.interval(j).begin);
      EXPECT_EQ(actual.interval(j).end, expected.interval(j).end);
      EXPECT_EQ(actual.interval(j).green, expected.interval(j).green);
    }
  }
}

TEST(ProfileSourceGolden, PaperScenariosMatchThePreRefactorDump) {
  // tests/golden/s1_s4_profiles.txt was captured from the generator as it
  // existed before the ProfileSource layer: "<name>: <len>/<green> ...".
  std::ifstream in(std::string(CAWO_SOURCE_DIR) +
                   "/tests/golden/s1_s4_profiles.txt");
  ASSERT_TRUE(in.good()) << "golden profile dump missing";
  std::string line;
  int checked = 0;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name;
    fields >> name;
    ASSERT_FALSE(name.empty());
    name.pop_back(); // strip the ':'
    const PowerProfile p = generateProfile(name, testRequest());
    std::size_t j = 0;
    std::string cell;
    while (fields >> cell) {
      const auto slash = cell.find('/');
      ASSERT_NE(slash, std::string::npos);
      ASSERT_LT(j, p.numIntervals()) << name;
      EXPECT_EQ(p.interval(j).length(),
                std::stoll(cell.substr(0, slash))) << name << " #" << j;
      EXPECT_EQ(p.interval(j).green,
                std::stoll(cell.substr(slash + 1))) << name << " #" << j;
      ++j;
    }
    EXPECT_EQ(j, p.numIntervals()) << name;
    ++checked;
  }
  EXPECT_EQ(checked, 4);
}

// ---------------------------------------------------------------------------
// Source behaviour
// ---------------------------------------------------------------------------

TEST(ProfileSourceShapes, ConstantSitsAtItsLevel) {
  const PowerProfile p = generateProfile("constant:level=0.5", testRequest());
  for (const Interval& iv : p.intervals())
    EXPECT_EQ(iv.green, kMin + (kMax - kMin) / 2);
  EXPECT_THROW((void)generateProfile("constant:level=1.5", testRequest()),
               PreconditionError);
}

TEST(ProfileSourceShapes, RampRisesFromTo) {
  const PowerProfile p =
      generateProfile("ramp:from=0.0,to=1.0", testRequest());
  for (std::size_t j = 1; j < p.numIntervals(); ++j)
    EXPECT_GT(p.interval(j).green, p.interval(j - 1).green);
  EXPECT_LT(p.interval(0).green, kMin + (kMax - kMin) / 10);
  EXPECT_GT(p.intervals().back().green, kMax - (kMax - kMin) / 10);
}

TEST(ProfileSourceShapes, SinePeriodControlsTheCycleCount) {
  // period = J/2 → two full cycles: interval 0 and interval 6 see the
  // same phase (12 intervals over the horizon).
  const PowerProfile p =
      generateProfile("sine:period=6,amp=0.5", testRequest());
  ASSERT_EQ(p.numIntervals(), 12u);
  EXPECT_EQ(p.interval(0).green, p.interval(6).green);
  EXPECT_THROW((void)generateProfile("sine:period=0", testRequest()),
               PreconditionError);
  EXPECT_THROW((void)generateProfile("sine:amp=2", testRequest()),
               PreconditionError);
}

TEST(ProfileSourceShapes, DuckHasAMiddayBellyAndEveningTrough) {
  const PowerProfile p = generateProfile("duck", testRequest());
  ASSERT_EQ(p.numIntervals(), 12u);
  const Power belly = p.interval(6).green;    // x ≈ 0.54
  const Power trough = p.interval(9).green;   // x ≈ 0.80
  const Power overnight = p.interval(0).green;
  EXPECT_GT(belly, overnight);
  EXPECT_LT(trough, overnight);
}

// ---------------------------------------------------------------------------
// Traces
// ---------------------------------------------------------------------------

TEST(ProfileSourceTrace, ReadsClipsAndTiles) {
  const std::string path =
      writeTempTrace("clip_trace.csv", {{100, 10}, {100, 20}, {100, 30}});

  // Exact coverage: intervals come through verbatim.
  const PowerProfile exact = generateProfile("trace:" + path,
                                             testRequest(300));
  ASSERT_EQ(exact.numIntervals(), 3u);
  EXPECT_EQ(exact.interval(1).green, 20);

  // Longer trace than horizon: clipped to exactly the horizon.
  const PowerProfile clipped =
      generateProfile("trace:" + path, testRequest(250));
  EXPECT_EQ(clipped.horizon(), 250);
  EXPECT_EQ(clipped.intervals().back().length(), 50);
  EXPECT_EQ(clipped.intervals().back().green, 30);

  // Shorter trace: an error without repeat=1, tiled with it.
  EXPECT_THROW((void)generateProfile("trace:" + path, testRequest(700)),
               PreconditionError);
  const PowerProfile tiled =
      generateProfile("trace:" + path + ",repeat=1", testRequest(700));
  EXPECT_EQ(tiled.horizon(), 700);
  ASSERT_EQ(tiled.numIntervals(), 7u);
  EXPECT_EQ(tiled.interval(3).green, 10); // second copy of the trace
  EXPECT_EQ(tiled.intervals().back().length(), 100);

  EXPECT_THROW((void)generateProfile("trace:/no/such/file.csv",
                                     testRequest()),
               PreconditionError);
  EXPECT_THROW((void)generateProfile("trace:repeat=1", testRequest()),
               PreconditionError); // no path
}

TEST(ProfileSourceTrace, ScalesAndNormalises) {
  const std::string path =
      writeTempTrace("scale_trace.csv", {{120, 10}, {120, 40}});

  const PowerProfile scaled =
      generateProfile("trace:" + path + ",scale=2.5", testRequest());
  EXPECT_EQ(scaled.interval(0).green, 25);
  EXPECT_EQ(scaled.interval(1).green, 100);

  // normalize=1 maps the trace's own [min, max] onto [Σidle, Σidle+0.8Σwork].
  const PowerProfile normed =
      generateProfile("trace:" + path + ",normalize=1", testRequest());
  EXPECT_EQ(normed.interval(0).green, kMin);
  EXPECT_EQ(normed.interval(1).green, kMax);

  // A flat trace normalises to the band midpoint, not a 0/0.
  const std::string flat =
      writeTempTrace("flat_trace.csv", {{240, 7}});
  const PowerProfile mid =
      generateProfile("trace:" + flat + ",normalize=1", testRequest());
  EXPECT_EQ(mid.interval(0).green, kMin + (kMax - kMin) / 2);

  // Calibration uses the *full* trace range even when the horizon clips
  // the window: the short-horizon profile sees only the global-min
  // interval, which still maps to the band floor (a clipped-window
  // min/max would flatten it to the midpoint).
  const PowerProfile clipped =
      generateProfile("trace:" + path + ",normalize=1", testRequest(120));
  ASSERT_EQ(clipped.numIntervals(), 1u);
  EXPECT_EQ(clipped.interval(0).green, kMin);

  EXPECT_THROW((void)generateProfile(
                   "trace:" + path + ",scale=2,normalize=1", testRequest()),
               PreconditionError);
  EXPECT_THROW((void)generateProfile("trace:" + path + ",scale=0",
                                     testRequest()),
               PreconditionError);
}

TEST(ProfileSourceTrace, NoiseIsSeededAndNonNegative) {
  const std::string path =
      writeTempTrace("noise_trace.csv", {{80, 5}, {80, 50}, {80, 500}});
  const std::string base = "trace:" + path;

  const PowerProfile clean = generateProfile(base, testRequest());
  const PowerProfile a =
      generateProfile(base + "+noise=0.3,seed=5", testRequest());
  const PowerProfile b =
      generateProfile(base + "+noise=0.3,seed=5", testRequest());
  const PowerProfile c =
      generateProfile(base + "+noise=0.3,seed=6", testRequest());

  bool anyPerturbed = false, anyDiffers = false;
  for (std::size_t j = 0; j < clean.numIntervals(); ++j) {
    EXPECT_EQ(a.interval(j).green, b.interval(j).green);
    EXPECT_GE(a.interval(j).green, 0);
    anyPerturbed |= a.interval(j).green != clean.interval(j).green;
    anyDiffers |= a.interval(j).green != c.interval(j).green;
  }
  EXPECT_TRUE(anyPerturbed);
  EXPECT_TRUE(anyDiffers);
}

// ---------------------------------------------------------------------------
// Noise-modifier semantics on the paper scenarios
// ---------------------------------------------------------------------------

TEST(ProfileSourceNoise, ModifierOverridesTheLegacyPerturbation) {
  ProfileRequest req = testRequest();
  // "+noise=0" disables the Section 6.1 perturbation: S4 becomes exactly
  // flat at the band midpoint.
  const PowerProfile flat = generateProfile("S4+noise=0", req);
  for (const Interval& iv : flat.intervals())
    EXPECT_EQ(iv.green, flat.interval(0).green);

  // "+noise=A,seed=N" decouples the noise stream from the request seed.
  req.seed = 1;
  const PowerProfile a = generateProfile("S1+noise=0.1,seed=123", req);
  req.seed = 2;
  const PowerProfile b = generateProfile("S1+noise=0.1,seed=123", req);
  for (std::size_t j = 0; j < a.numIntervals(); ++j)
    EXPECT_EQ(a.interval(j).green, b.interval(j).green);
}

// ---------------------------------------------------------------------------
// End to end: instances and campaigns on non-enum specs
// ---------------------------------------------------------------------------

TEST(ProfileSourceEndToEnd, InstancesBuildFromAnySpec) {
  InstanceSpec spec;
  spec.family = WorkflowFamily::Eager;
  spec.targetTasks = 25;
  spec.nodesPerType = 1;
  spec.scenario = "sine:period=4,amp=0.5+noise=0.05";
  spec.deadlineFactor = 2.0;
  spec.numIntervals = 8;
  spec.seed = 9;
  const Instance inst = buildInstance(spec);
  EXPECT_EQ(inst.profile.horizon(), inst.deadline);
  EXPECT_EQ(inst.spec.label(),
            "eager-25/c1/sine:period=4,amp=0.5+noise=0.05/d2.0");
}

TEST(ProfileSourceEndToEnd, CampaignsMixPaperShapeAndTraceSpecs) {
  const std::string path = writeTempTrace(
      "campaign_trace.csv", {{500, 40}, {500, 400}, {500, 150}});
  CampaignSpec spec;
  spec.name = "mixed";
  setCampaignKey(spec, "families", "atacseq");
  setCampaignKey(spec, "tasks", "25");
  setCampaignKey(spec, "nodes-per-type", "1");
  setCampaignKey(spec, "scenarios",
                 "S1,sine:period=8,amp=0.4,duck,trace:" + path +
                     ",repeat=1,normalize=1");
  setCampaignKey(spec, "deadline-factors", "1.5");
  setCampaignKey(spec, "seeds", "3");
  setCampaignKey(spec, "intervals", "8");
  setCampaignKey(spec, "algos", "ASAP,pressWR-LS");

  ASSERT_EQ(spec.scenarios.size(), 4u);
  EXPECT_EQ(spec.scenarios[1], "sine:period=8,amp=0.4");
  EXPECT_EQ(spec.cellCount(), 4u);

  const CampaignOutcome outcome = runCampaign(spec);
  ASSERT_EQ(outcome.records.size(), 8u);
  for (const CampaignRecord& r : outcome.records) {
    EXPECT_FALSE(r.skipped);
    EXPECT_TRUE(r.feasible) << r.instance;
  }
  // S1 leads (canonical order), the other specs follow in axis order.
  ASSERT_EQ(outcome.scenarios.size(), 4u);
  EXPECT_EQ(outcome.scenarios[0], "S1");
  EXPECT_EQ(outcome.scenarios[1], "sine:period=8,amp=0.4");

  // The JSON document carries every spec verbatim and stays parseable.
  const JsonValue doc = JsonValue::parse(toCampaignJsonString(outcome));
  const auto& records = doc.at("records").asArray();
  ASSERT_EQ(records.size(), 8u);
  EXPECT_EQ(records[2].at("scenario").asString(), "sine:period=8,amp=0.4");
  EXPECT_EQ(records[4].at("scenario").asString(), "duck");
  const auto& summary = doc.at("summary").asArray();
  ASSERT_EQ(summary.size(), 2u);
  EXPECT_EQ(summary[0].at("median_ratio_by_scenario").objectKeys().size(),
            4u);
}

TEST(ProfileSourceEndToEnd, CampaignRejectsBadSpecsAtParseTime) {
  CampaignSpec spec;
  EXPECT_THROW(setCampaignKey(spec, "scenarios", "S1,solar:tilt=30"),
               PreconditionError);
  EXPECT_THROW(setCampaignKey(spec, "scenarios", "sine:"),
               PreconditionError);
  // The axis is dry-run validated, so parameter typos, out-of-range
  // values and unreadable trace files also fail before any sweep starts.
  EXPECT_THROW(setCampaignKey(spec, "scenarios", "S1,sine:perod=8"),
               PreconditionError);
  EXPECT_THROW(setCampaignKey(spec, "scenarios", "sine:amp=2"),
               PreconditionError);
  EXPECT_THROW(setCampaignKey(spec, "scenarios", "trace:/no/such.csv"),
               PreconditionError);
  // The axis survived every failure untouched.
  EXPECT_EQ(spec.scenarios.size(), 4u);
}

} // namespace
} // namespace cawo
