// The online execution engine (src/online/): policy spec parsing and the
// policy registry, the replay engine's execution model, the offline-parity
// pin (static policy + exact runtimes + actual == forecast reproduces every
// registered solver's offline cost bit for bit), deadline safety of the
// re-solving policies, the incremental pinned-prefix windows against the
// full-recompute oracle after every event, the duration-aware carbon-cost
// evaluators, residual solving through the Solver API (the offline problem
// is the residual one with nothing started), and the campaign online mode
// end to end.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/carbon_cost.hpp"
#include "core/cawosched.hpp"
#include "core/est_lst.hpp"
#include "core/greedy.hpp"
#include "core/solve_context.hpp"
#include "exp/campaign.hpp"
#include "exp/campaign_runner.hpp"
#include "exp/json.hpp"
#include "obs/trace.hpp"
#include "online/policy.hpp"
#include "online/replay.hpp"
#include "profile/profile_source.hpp"
#include "sim/instance.hpp"
#include "sim/runner.hpp"
#include "solver/registry.hpp"
#include "oracles/est_lst_full_sweep.hpp"
#include "test_util.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace cawo {
namespace {

InstanceSpec smokeSpec(const std::string& scenario = "S1",
                       double deadlineFactor = 1.5,
                       std::uint64_t seed = 1) {
  InstanceSpec spec;
  spec.family = WorkflowFamily::Atacseq;
  spec.targetTasks = 30;
  spec.nodesPerType = 2;
  spec.scenario = scenario;
  spec.deadlineFactor = deadlineFactor;
  spec.numIntervals = 8;
  spec.seed = seed;
  return spec;
}

// ---------------------------------------------------------------------------
// Policy specs and registry
// ---------------------------------------------------------------------------

TEST(PolicySpec, ParsesBareAndParameterisedSpecs) {
  const Spec bare = Spec::parse("static");
  EXPECT_EQ(bare.name, "static");
  EXPECT_TRUE(bare.params.empty());

  const Spec parameterised = Spec::parse("periodic:every=4");
  EXPECT_EQ(parameterised.name, "periodic");
  EXPECT_EQ(parameterised.paramInt("every", -1), 4);
}

TEST(PolicySpec, RejectsMalformedSpecs) {
  EXPECT_THROW(Spec::parse(""), PreconditionError);
  EXPECT_THROW(Spec::parse("periodic:"), PreconditionError);
  EXPECT_THROW(Spec::parse("periodic:every=4,every=5"), PreconditionError);
  // A bare value is grammar (trace paths use it); no policy takes one.
  EXPECT_THROW(ReschedulePolicyRegistry::global().resolve("periodic:every"),
               PreconditionError);
}

TEST(PolicyRegistry, ListsBuiltinsAndRejectsUnknown) {
  const ReschedulePolicyRegistry& registry =
      ReschedulePolicyRegistry::global();
  const std::vector<std::string> names = registry.names();
  EXPECT_EQ(names, (std::vector<std::string>{"static", "periodic",
                                             "reactive"}));
  EXPECT_THROW(registry.resolve("hourly"), PreconditionError);
  EXPECT_THROW(registry.resolve("periodic:evrey=4"), PreconditionError);
  EXPECT_THROW(registry.resolve("periodic:every=0"), PreconditionError);
  EXPECT_THROW(registry.resolve("reactive:threshold=-1"), PreconditionError);
  // Names are free of spec syntax on every axis, '+' included.
  ReschedulePolicyRegistry local;
  const PolicyFactory none = [](const Spec&) -> PolicyPtr { return nullptr; };
  EXPECT_THROW(local.registerFactory({"every+1", "x", "x"}, none),
               PreconditionError);
  // Non-finite numbers are no thresholds: inf would never fire.
  for (const char* spec : {"reactive:threshold=inf", "reactive:threshold=nan",
                           "reactive:threshold=-inf",
                           "reactive:threshold=1e999"}) {
    try {
      (void)registry.resolve(spec);
      ADD_FAILURE() << spec << " was accepted";
    } catch (const PreconditionError& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find(spec), std::string::npos) << message;
      EXPECT_NE(message.find("parameter \"threshold\""), std::string::npos)
          << message;
    }
  }
}

TEST(PolicyRegistry, BuiltinTriggersFire) {
  const ReschedulePolicyRegistry& registry =
      ReschedulePolicyRegistry::global();
  PolicyEvent event;
  event.intervalsSinceResolve = 3;
  event.carbonDeviation = [] { return 0.2; };

  EXPECT_FALSE(registry.resolve("static")->shouldResolve(event));
  EXPECT_TRUE(registry.resolve("periodic:every=3")->shouldResolve(event));
  EXPECT_FALSE(registry.resolve("periodic:every=4")->shouldResolve(event));
  EXPECT_TRUE(
      registry.resolve("reactive:threshold=0.15")->shouldResolve(event));
  EXPECT_FALSE(
      registry.resolve("reactive:threshold=0.25")->shouldResolve(event));
}

// ---------------------------------------------------------------------------
// Duration-aware cost evaluation
// ---------------------------------------------------------------------------

TEST(OnlineCost, WithPlannedDurationsMatchesEvaluateCostBitForBit) {
  Rng rng(7);
  for (int round = 0; round < 20; ++round) {
    const Instance inst = buildInstance(
        smokeSpec("S3", 1.5, 100 + static_cast<std::uint64_t>(round)));
    const Schedule s = testing::randomSchedule(inst.gc, inst.deadline, rng);
    std::vector<Time> lens(static_cast<std::size_t>(inst.gc.numNodes()));
    for (TaskId u = 0; u < inst.gc.numNodes(); ++u)
      lens[static_cast<std::size_t>(u)] = inst.gc.len(u);
    EXPECT_EQ(evaluateCostWithDurations(inst.gc, inst.profile, s, lens),
              evaluateCost(inst.gc, inst.profile, s));
  }
}

TEST(OnlineCost, PrefixAtHorizonEqualsFullEvaluation) {
  Rng rng(11);
  const Instance inst = buildInstance(smokeSpec("S2"));
  const Schedule s = testing::randomSchedule(inst.gc, inst.deadline, rng);
  std::vector<Time> lens(static_cast<std::size_t>(inst.gc.numNodes()));
  for (TaskId u = 0; u < inst.gc.numNodes(); ++u)
    lens[static_cast<std::size_t>(u)] = inst.gc.len(u);
  EXPECT_EQ(
      evaluateCostPrefix(inst.gc, inst.profile, s, lens,
                         inst.profile.horizon()),
      evaluateCost(inst.gc, inst.profile, s));
  // Prefix cost is monotone in the window end.
  Cost prev = 0;
  for (Time t = 0; t <= inst.profile.horizon(); t += 37) {
    const Cost c = evaluateCostPrefix(inst.gc, inst.profile, s, lens, t);
    EXPECT_GE(c, prev);
    prev = c;
  }
}

TEST(OnlineCost, OvershootPastHorizonIsBilledAllBrown) {
  // One task of length 2 on one processor, horizon 4, generous budget:
  // in-horizon cost is 0, but stretching the runtime to 10 pushes 8 time
  // units past the horizon where everything (idle 1 + work 3) is brown.
  const EnhancedGraph gc = testing::makeChainGc({2});
  const PowerProfile profile = PowerProfile::uniform(4, 100);
  Schedule s(gc.numNodes());
  s.setStart(0, 0);
  EXPECT_EQ(evaluateCostWithDurations(gc, profile, s, {2}), 0);
  EXPECT_EQ(evaluateCostWithDurations(gc, profile, s, {10}),
            (1 + 3) * (10 - 4));
}

// ---------------------------------------------------------------------------
// Forecast/actual pair resolution
// ---------------------------------------------------------------------------

TEST(ProfilePairs, NoiselessSpecYieldsIdenticalPair) {
  ProfileRequest req;
  req.horizon = 240;
  req.sumIdle = 100;
  req.sumWork = 200;
  const ProfilePair pair = generateForecastActualPair("S1", req);
  ASSERT_EQ(pair.forecast.numIntervals(), pair.actual.numIntervals());
  for (std::size_t j = 0; j < pair.forecast.numIntervals(); ++j)
    EXPECT_EQ(pair.forecast.interval(j).green, pair.actual.interval(j).green);
}

TEST(ProfilePairs, NoiseModifierSeparatesForecastFromActual) {
  ProfileRequest req;
  req.horizon = 240;
  req.sumIdle = 100;
  req.sumWork = 200;
  const ProfilePair pair =
      generateForecastActualPair("sine:period=12+noise=0.3,seed=5", req);
  const PowerProfile clean = generateProfile("sine:period=12", req);
  ASSERT_EQ(pair.forecast.numIntervals(), clean.numIntervals());
  bool differs = false;
  for (std::size_t j = 0; j < clean.numIntervals(); ++j) {
    EXPECT_EQ(pair.forecast.interval(j).green, clean.interval(j).green);
    differs |= pair.actual.interval(j).green != clean.interval(j).green;
  }
  EXPECT_TRUE(differs) << "the +noise actual should deviate from the clean "
                          "forecast";
}

// ---------------------------------------------------------------------------
// Offline parity pin
// ---------------------------------------------------------------------------

// With the static policy, exact runtimes and actual == forecast, the replay
// must reproduce the offline solver's cost bit for bit — for every
// registered solver that fits the instance (ISSUE 5 acceptance pin).
TEST(ReplayParity, StaticPolicyReproducesOfflineCostForAllSolvers) {
  for (const std::string scenario : {"S1", "S3"}) {
    const Instance inst = buildInstance(smokeSpec(scenario));
    const SolverRegistry& registry = SolverRegistry::global();
    for (const std::string& name : registry.names()) {
      if (!solverFitsInstance(registry.create(name)->info(), inst)) continue;

      SolverOptions options;
      options.setInt("block-size", 3);
      options.setInt("ls-radius", 10);
      if (name == "bnb") options.setDouble("time-limit-sec", 2.0);

      OnlineOptions opts;
      opts.solver = name;
      opts.solverOptions = options;
      const OnlineResult online =
          replayOnline(inst, inst.profile, inst.profile, opts, {"static"})
              .front();
      ASSERT_TRUE(online.ran) << name << ": " << online.error;
      // The engine-internal pin, valid for every solver: billing the
      // executed trajectory against the actual (== forecast) profile
      // reproduces the plan's own offline cost bit for bit.
      EXPECT_EQ(online.actualCost, online.forecastCost)
          << "solver " << name << " on " << inst.spec.label();
      EXPECT_EQ(online.resolveCount, 0u) << name;
      EXPECT_TRUE(online.deadlineMet) << name;

      // Cross-check against an independent offline solve — but not for
      // the anytime `bnb`, whose wall-clock budget makes two runs under
      // parallel ctest load explore different node counts.
      if (name == "bnb") continue;
      SolveRequest request;
      request.gc = &inst.gc;
      request.profile = &inst.profile;
      request.deadline = inst.deadline;
      request.graph = &inst.graph;
      request.platform = &inst.platform;
      request.options = options;
      const SolveResult offline = registry.create(name)->solve(request);
      if (!offline.feasible) continue;
      EXPECT_EQ(online.actualCost, offline.cost)
          << "solver " << name << " on " << inst.spec.label();
      EXPECT_EQ(online.forecastCost, offline.cost) << name;
    }
  }
}

// Re-solving policies must never break a deadline the plan met: with exact
// runtimes, every accepted residual plan respects the windows, so the
// deadline holds no matter how often the policies fire.
TEST(ReplayParity, ResolvingPoliciesPreserveDeadlineFeasibility) {
  for (const std::string scenario :
       {"S1+noise=0.4,seed=9", "S3+noise=0.3,seed=5"}) {
    for (const std::string policy :
         {"periodic:every=1", "reactive:threshold=0.01"}) {
      for (const double factor : {1.0, 1.5}) {
        const Instance inst = buildInstance(smokeSpec(scenario, factor));
        OnlineOptions opts;
        opts.solver = "pressWR-LS";
        const OnlineResult r = replayOnline(inst, "", opts, {policy}).front();
        ASSERT_TRUE(r.ran) << policy << ": " << r.error;
        EXPECT_TRUE(r.deadlineMet)
            << policy << " on " << inst.spec.label() << " finished at "
            << r.finishTime << " > " << r.deadline;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Incremental pinned-prefix windows vs the full-recompute oracle
// ---------------------------------------------------------------------------

// After every completion-event batch — with runtime drift and per-event
// re-solves in play — the engine's incrementally maintained WindowState
// must match recomputeWindows on the same pinned prefix, bit for bit
// (ISSUE 5 acceptance pin).
TEST(ReplayWindows, IncrementalWindowsMatchOracleAfterEveryEvent) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const Instance inst =
        buildInstance(smokeSpec("S1+noise=0.3,seed=4", 2.0, seed));
    OnlineOptions opts;
    opts.solver = "pressWR";
    opts.runtimeNoise = 0.25;
    opts.runtimeSeed = seed;

    const ReplayProfiles profiles(inst, "");
    const ReplayPlan plan(inst, profiles.forecast(), profiles.actual(), opts);
    ASSERT_TRUE(plan.feasible()) << plan.error();
    const std::string policy = "periodic:every=1";
    ReplayEngine engine(plan, policy,
                        ReschedulePolicyRegistry::global().resolve(policy));

    const EnhancedGraph& gc = engine.gc();
    std::vector<Time> est(static_cast<std::size_t>(gc.numNodes()));
    std::vector<Time> lst(static_cast<std::size_t>(gc.numNodes()));
    int checked = 0;
    while (!engine.finished()) {
      engine.step();
      std::vector<bool> placed(static_cast<std::size_t>(gc.numNodes()));
      Schedule partial(gc.numNodes());
      for (TaskId v = 0; v < gc.numNodes(); ++v) {
        if (!engine.startedMask()[static_cast<std::size_t>(v)]) continue;
        placed[static_cast<std::size_t>(v)] = true;
        partial.setStart(v, engine.executedStarts().start(v));
      }
      oracle::recomputeWindows(gc, engine.deadline(), partial, placed, est,
                               lst);
      ASSERT_EQ(engine.windows().estAll(), est)
          << "EST diverged at t=" << engine.now() << " (seed " << seed
          << ")";
      ASSERT_EQ(engine.windows().lstAll(), lst)
          << "LST diverged at t=" << engine.now() << " (seed " << seed
          << ")";
      ++checked;
    }
    EXPECT_GT(checked, 0);
    EXPECT_GT(engine.resolveCount(), 0u)
        << "the periodic:every=1 policy should have re-solved";
  }
}

// ---------------------------------------------------------------------------
// One replay call over a policy list
// ---------------------------------------------------------------------------

// One replayOnline call shares the plan, the effective problem, the
// runtimes and the clairvoyant reference across its policies; each row
// must equal the one-policy call of the same policy, field by field (wall
// times aside) — also for a re-mapping solver and under runtime noise.
TEST(ReplayPolicies, ListCallMatchesOnePolicyCalls) {
  const std::vector<std::string> policies{"static", "periodic:every=1",
                                          "reactive:threshold=0.05"};
  const std::vector<std::pair<std::string, std::string>> pairs{
      {"S1+noise=0.3,seed=9", ""}, {"S3", "constant:level=0.4"}};
  std::size_t resolves = 0;
  for (const std::string solver : {"pressWR-LS", "greenheft"}) {
    for (const double noise : {0.0, 0.1}) {
      for (const auto& [forecast, actual] : pairs) {
        const Instance inst = buildInstance(smokeSpec(forecast, 1.2));
        OnlineOptions opts;
        opts.solver = solver;
        opts.runtimeNoise = noise;
        const std::vector<OnlineResult> rows =
            replayOnline(inst, actual, opts, policies);
        ASSERT_EQ(rows.size(), policies.size());
        for (std::size_t p = 0; p < policies.size(); ++p) {
          SCOPED_TRACE(solver + " / " + policies[p] + " / " + forecast +
                       " vs '" + actual + "' / noise " +
                       std::to_string(noise));
          const OnlineResult one =
              replayOnline(inst, actual, opts, {policies[p]}).front();
          const OnlineResult& row = rows[p];
          ASSERT_TRUE(row.ran) << row.error;
          EXPECT_EQ(row.solver, one.solver);
          EXPECT_EQ(row.policy, one.policy);
          EXPECT_EQ(row.ran, one.ran);
          EXPECT_EQ(row.forecastCost, one.forecastCost);
          EXPECT_EQ(row.actualCost, one.actualCost);
          EXPECT_EQ(row.clairvoyantFeasible, one.clairvoyantFeasible);
          EXPECT_EQ(row.clairvoyantCost, one.clairvoyantCost);
          EXPECT_EQ(row.regret, one.regret);
          EXPECT_TRUE(row.regretRatio == one.regretRatio ||
                      (std::isnan(row.regretRatio) &&
                       std::isnan(one.regretRatio)));
          EXPECT_EQ(row.resolveCount, one.resolveCount);
          EXPECT_EQ(row.resolveAccepted, one.resolveAccepted);
          ASSERT_EQ(row.resolves.size(), one.resolves.size());
          for (std::size_t k = 0; k < row.resolves.size(); ++k) {
            EXPECT_EQ(row.resolves[k].at, one.resolves[k].at);
            EXPECT_EQ(row.resolves[k].accepted, one.resolves[k].accepted);
          }
          EXPECT_EQ(row.deadline, one.deadline);
          EXPECT_EQ(row.finishTime, one.finishTime);
          EXPECT_EQ(row.deadlineMet, one.deadlineMet);
          resolves += row.resolveCount;
        }
      }
    }
  }
  EXPECT_GT(resolves, 0u) << "the sweep should exercise re-solves";
}

// A policy list costs one plan solve and one clairvoyant solve per call,
// plus the re-solves: exactly 2 + Σ resolveCount `solve` spans.
TEST(ReplayPolicies, SolvesPlanAndReferenceOncePerCall) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::global();
  for (const std::string solver : {"pressWR-LS", "greenheft"}) {
    const Instance inst =
        buildInstance(smokeSpec("S1+noise=0.3,seed=9", 1.2));
    OnlineOptions opts;
    opts.solver = solver;
    opts.runtimeNoise = 0.1;
    recorder.clear();
    recorder.setState(obs::TraceState::Recording);
    const std::vector<OnlineResult> rows = replayOnline(
        inst, "", opts,
        {"static", "periodic:every=1", "reactive:threshold=0.05"});
    recorder.setState(obs::TraceState::Off);
    std::ostringstream trace;
    recorder.writeChromeTrace(trace);
    recorder.clear();
    const JsonValue doc = JsonValue::parse(trace.str());

    std::size_t resolves = 0;
    for (const OnlineResult& r : rows) {
      ASSERT_TRUE(r.ran) << solver << ": " << r.error;
      resolves += r.resolveCount;
    }
    EXPECT_GT(resolves, 0u) << solver;
    std::size_t solveSpans = 0;
    for (const JsonValue& event : doc.at("traceEvents").asArray())
      solveSpans += event.at("name").asString() == "solve" ? 1 : 0;
    EXPECT_EQ(solveSpans, 2 + resolves) << solver;
  }
}

// ---------------------------------------------------------------------------
// Residual solving through the Solver API
// ---------------------------------------------------------------------------

TEST(ResidualSolve, NonResidualSolversRejectResidualRequests) {
  const Instance inst = buildInstance(smokeSpec());
  Schedule starts(inst.gc.numNodes());
  std::vector<std::uint8_t> started(
      static_cast<std::size_t>(inst.gc.numNodes()), 0);
  std::vector<Time> durations(static_cast<std::size_t>(inst.gc.numNodes()),
                              0);
  ResidualProblem residual;
  residual.starts = &starts;
  residual.started = &started;
  residual.durations = &durations;

  SolveRequest request;
  request.gc = &inst.gc;
  request.profile = &inst.profile;
  request.deadline = inst.deadline;
  request.residual = &residual;
  EXPECT_THROW(SolverRegistry::global().create("ASAP")->solve(request),
               PreconditionError);
  EXPECT_FALSE(SolverRegistry::global().create("ASAP")->info()
                   .supportsResidual);
  EXPECT_TRUE(SolverRegistry::global().create("pressWR-LS")->info()
                  .supportsResidual);
}

/// The offline problem as a residual one: nothing started, release time
/// 0, planned durations. The vectors live in the struct so the pointers
/// stay valid.
struct EmptyResidual {
  explicit EmptyResidual(const EnhancedGraph& gc)
      : starts(gc.numNodes()),
        started(static_cast<std::size_t>(gc.numNodes()), 0) {
    for (TaskId v = 0; v < gc.numNodes(); ++v) durations.push_back(gc.len(v));
    problem.starts = &starts;
    problem.started = &started;
    problem.durations = &durations;
  }
  EmptyResidual(const EmptyResidual&) = delete;

  Schedule starts;
  std::vector<std::uint8_t> started;
  std::vector<Time> durations;
  ResidualProblem problem;
};

TEST(ResidualSolve, EmptyPrefixResidualMatchesPlainGreedy) {
  // A residual problem with nothing pinned and release time 0 is exactly
  // the offline problem; the greedy must produce the same schedule with
  // and without it (the -LS pass is skipped on residuals, so compare
  // against the greedy-only variant).
  const Instance inst = buildInstance(smokeSpec("S3"));
  const SolveContext ctx(inst.gc, inst.profile, inst.deadline);
  GreedyOptions gopts;
  gopts.base = BaseScore::Pressure;
  gopts.weighted = true;
  gopts.refined = true;
  const EmptyResidual empty(inst.gc);
  EXPECT_EQ(scheduleGreedy(ctx, gopts, &empty.problem).starts(),
            scheduleGreedy(ctx, gopts).starts());
}

TEST(ResidualSolve, ValidatorCatchesMovedPinsAndEarlyStarts) {
  const EnhancedGraph gc = testing::makeChainGc({3, 3, 3});
  Schedule starts(gc.numNodes());
  starts.setStart(0, 0);
  std::vector<std::uint8_t> started{1, 0, 0};
  std::vector<Time> durations{5, 3, 3}; // task 0 ran long: ended at 5
  ResidualProblem residual;
  residual.starts = &starts;
  residual.started = &started;
  residual.durations = &durations;
  residual.releaseTime = 5;

  Schedule ok(gc.numNodes());
  ok.setStart(0, 0);
  ok.setStart(1, 5);
  ok.setStart(2, 8);
  EXPECT_TRUE(validateSchedule(gc, ok, 20, &residual).ok);

  Schedule movedPin = ok;
  movedPin.setStart(0, 1);
  EXPECT_FALSE(validateSchedule(gc, movedPin, 20, &residual).ok);

  Schedule beforeRelease = ok;
  beforeRelease.setStart(1, 4); // also before task 0's effective end
  EXPECT_FALSE(validateSchedule(gc, beforeRelease, 20, &residual).ok);

  Schedule lateFinish = ok;
  lateFinish.setStart(2, 18); // 18 + 3 > 20
  EXPECT_FALSE(validateSchedule(gc, lateFinish, 20, &residual).ok);
}

TEST(ResidualSolve, ValidatorRejectsWrongSizeSchedule) {
  const EnhancedGraph gc = testing::makeChainGc({3, 3, 3});
  Schedule starts(gc.numNodes());
  starts.setStart(0, 0);
  std::vector<std::uint8_t> started{1, 0, 0};
  std::vector<Time> durations{3, 3, 3};
  ResidualProblem residual;
  residual.starts = &starts;
  residual.started = &started;
  residual.durations = &durations;

  // Every node of the graph is placed feasibly, but the schedule carries
  // one extra node.
  Schedule tooLong(gc.numNodes() + 1);
  for (TaskId v = 0; v <= gc.numNodes(); ++v) tooLong.setStart(v, 3 * v);
  const ValidationResult r = validateSchedule(gc, tooLong, 20, &residual);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.message, "schedule size does not match graph");
  EXPECT_FALSE(validateSchedule(gc, Schedule(2), 20, &residual).ok);
}

TEST(ResidualSolve, ValidatorAcceptsSuccessorOfShortRunningPredecessor) {
  // One processor: task 0 was planned for 5 but finished after 2, so its
  // chain successor may start at 2 — on the freed processor.
  const EnhancedGraph gc = testing::makeChainGc({5, 3});
  Schedule starts(gc.numNodes());
  starts.setStart(0, 0);
  std::vector<std::uint8_t> started{1, 0};
  std::vector<Time> durations{2, 3};
  ResidualProblem residual;
  residual.starts = &starts;
  residual.started = &started;
  residual.durations = &durations;
  residual.releaseTime = 2;

  Schedule s(gc.numNodes());
  s.setStart(0, 0);
  s.setStart(1, 2);
  const ValidationResult r = validateSchedule(gc, s, 10, &residual);
  EXPECT_TRUE(r.ok) << r.message;
  // Offline, task 0 occupies its processor for the planned 5.
  EXPECT_FALSE(validateSchedule(gc, s, 10).ok);

  s.setStart(1, 1); // before task 0 actually finished
  residual.releaseTime = 1;
  EXPECT_FALSE(validateSchedule(gc, s, 10, &residual).ok);
}

TEST(ResidualSolve, EmptyResidualGreedyMatchesOfflineOnRandomDags) {
  Rng rng(2718);
  for (int round = 0; round < 25; ++round) {
    const int n = static_cast<int>(rng.uniformInt(3, 40));
    const EnhancedGraph gc = testing::randomDag(
        n, static_cast<int>(rng.uniformInt(1, 4)), 0.2, rng);
    const Time deadline = gc.criticalPathLength() + rng.uniformInt(0, 40);
    const PowerProfile profile = testing::randomProfile(
        deadline, static_cast<int>(rng.uniformInt(2, 8)), 0, 25, rng);
    const SolveContext ctx(gc, profile, deadline);
    const EmptyResidual empty(gc);
    for (const VariantSpec& variant : allVariants()) {
      if (variant.localSearch) continue; // the 8 greedy variants
      const GreedyOptions opts = variant.greedyOptions(3);
      EXPECT_EQ(scheduleGreedy(ctx, opts, &empty.problem).starts(),
                scheduleGreedy(ctx, opts).starts())
          << variant.name() << ", round " << round;
    }
  }
}

TEST(ResidualSolve, EmptyResidualValidatorMatchesOffline) {
  Rng rng(31415);
  int feasible = 0, infeasible = 0;
  for (int round = 0; round < 40; ++round) {
    const int n = static_cast<int>(rng.uniformInt(2, 30));
    const EnhancedGraph gc = testing::randomDag(
        n, static_cast<int>(rng.uniformInt(1, 4)), 0.25, rng);
    const Time deadline = gc.criticalPathLength() + rng.uniformInt(0, 20);
    const EmptyResidual empty(gc);
    const Schedule base = testing::randomSchedule(gc, deadline, rng);
    for (int k = 0; k < 8; ++k) {
      Schedule s = base;
      // k = 0 keeps the feasible schedule; later rounds shift a few
      // starts (possibly past the deadline or into a neighbour) and now
      // and then unset one.
      for (int m = 0; m < k % 4; ++m) {
        const TaskId v = static_cast<TaskId>(rng.uniformInt(0, n - 1));
        s.setStart(v, std::max<Time>(0, s.start(v) + rng.uniformInt(-6, 6)));
      }
      if (k == 7) s.setStart(static_cast<TaskId>(rng.uniformInt(0, n - 1)), -1);
      const ValidationResult offline = validateSchedule(gc, s, deadline);
      const ValidationResult residual =
          validateSchedule(gc, s, deadline, &empty.problem);
      EXPECT_EQ(residual.ok, offline.ok) << "round " << round << ", k " << k;
      EXPECT_EQ(residual.message, offline.message)
          << "round " << round << ", k " << k;
      if (offline.ok)
        ++feasible;
      else
        ++infeasible;
    }
  }
  EXPECT_GT(feasible, 40);
  EXPECT_GT(infeasible, 40);
}

// ---------------------------------------------------------------------------
// Campaign online mode
// ---------------------------------------------------------------------------

CampaignSpec onlineCampaignSpec() {
  CampaignSpec spec;
  setCampaignKey(spec, "families", "atacseq");
  setCampaignKey(spec, "tasks", "30");
  setCampaignKey(spec, "scenarios", "S1+noise=0.3,seed=7");
  setCampaignKey(spec, "deadline-factors", "1.5");
  setCampaignKey(spec, "seeds", "1");
  setCampaignKey(spec, "intervals", "8");
  setCampaignKey(spec, "algos", "ASAP,pressWR-LS");
  setCampaignKey(spec, "online", "1");
  setCampaignKey(spec, "policies", "static,periodic:every=2");
  return spec;
}

TEST(OnlineCampaign, KeysParseAndValidate) {
  CampaignSpec spec = onlineCampaignSpec();
  EXPECT_TRUE(spec.online);
  EXPECT_EQ(spec.policies,
            (std::vector<std::string>{"static", "periodic:every=2"}));
  EXPECT_THROW(setCampaignKey(spec, "online", "maybe"), PreconditionError);
  EXPECT_THROW(setCampaignKey(spec, "policies", "hourly"),
               PreconditionError);
  EXPECT_THROW(setCampaignKey(spec, "actual", "nosuchsource:x=1"),
               PreconditionError);
  EXPECT_THROW(setCampaignKey(spec, "runtime-noise", "1.5"),
               PreconditionError);
  setCampaignKey(spec, "actual", "constant:level=0.3");
  EXPECT_EQ(spec.actual, "constant:level=0.3");
}

TEST(OnlineCampaign, ExplicitActualRejectsNoisyForecastSpecs) {
  // `+noise` on the forecast spec IS the forecast error; combining it
  // with an explicit actual would silently change what the solver plans
  // against, so both surfaces reject the combination.
  const Instance inst = buildInstance(smokeSpec("S1+noise=0.2,seed=3"));
  EXPECT_THROW(
      replayOnline(inst, "constant:level=0.4", OnlineOptions{}, {"static"}),
      PreconditionError);

  CampaignSpec spec = onlineCampaignSpec(); // scenario has +noise
  setCampaignKey(spec, "actual", "constant:level=0.4");
  EXPECT_THROW(runCampaign(spec), PreconditionError);
}

TEST(OnlineCampaign, RecordsMatchDirectReplayAndCarryOnlineFields) {
  const CampaignSpec spec = onlineCampaignSpec();
  const CampaignOutcome outcome = runCampaign(spec);

  // 1 instance × 2 solvers × 2 policies, instance-major, policy-minor.
  ASSERT_EQ(outcome.solvers.size(), 4u);
  ASSERT_EQ(outcome.records.size(), 4u);
  EXPECT_EQ(outcome.policies,
            (std::vector<std::string>{"static", "periodic:every=2"}));

  SolverOptions options;
  options.setInt("block-size", 3);
  options.setInt("ls-radius", 10);
  const Instance inst = buildInstance(expandCampaign(spec).front());
  for (const CampaignRecord& record : outcome.records) {
    ASSERT_TRUE(record.hasOnline);
    ASSERT_FALSE(record.skipped);
    OnlineOptions opts;
    opts.solver = record.solver;
    opts.solverOptions = options;
    opts.runtimeSeed = inst.spec.seed ^ 0x0417CEB5ULL;
    const OnlineResult direct =
        replayOnline(inst, "", opts, {record.policy}).front();
    ASSERT_TRUE(direct.ran);
    EXPECT_EQ(record.cost, direct.actualCost)
        << record.solver << " @ " << record.policy;
    EXPECT_EQ(record.forecastCost, direct.forecastCost);
    EXPECT_EQ(record.resolves,
              static_cast<std::int64_t>(direct.resolveCount));
    EXPECT_EQ(record.deadlineMet, direct.deadlineMet);
    EXPECT_EQ(record.clairvoyantFeasible, direct.clairvoyantFeasible);
    EXPECT_EQ(record.clairvoyantCost, direct.clairvoyantCost);
  }
}

TEST(OnlineCampaign, JsonRecordsCarryTheOnlineSchema) {
  const CampaignOutcome outcome = runCampaign(onlineCampaignSpec());
  const JsonValue doc = JsonValue::parse(toCampaignJsonString(outcome));
  EXPECT_TRUE(doc.at("campaign").at("online").asBool());
  EXPECT_EQ(doc.at("campaign").at("policies").asArray().size(), 2u);
  const JsonValue& record = doc.at("records").asArray().front();
  for (const char* key :
       {"policy", "actual_scenario", "forecast_cost", "clairvoyant_cost",
        "regret", "regret_ratio", "resolves", "resolves_accepted",
        "resolve_wall_ms", "deadline_met", "finish_time"}) {
    EXPECT_TRUE(record.has(key)) << key;
  }
  // Offline records must NOT carry the online keys (schema byte-stability).
  CampaignSpec offline = onlineCampaignSpec();
  setCampaignKey(offline, "online", "0");
  const JsonValue offlineDoc =
      JsonValue::parse(toCampaignJsonString(runCampaign(offline)));
  EXPECT_FALSE(offlineDoc.at("records").asArray().front().has("policy"));
  EXPECT_FALSE(offlineDoc.at("campaign").has("online"));
}

// The online campaign parity pin: actual == forecast (noiseless scenario),
// static policy, zero runtime noise — every online record's billed cost
// equals the offline campaign's cost for the same (instance, solver) cell.
TEST(OnlineCampaign, StaticNoiselessModeMatchesOfflineCampaign) {
  CampaignSpec offline;
  setCampaignKey(offline, "families", "atacseq");
  setCampaignKey(offline, "tasks", "30");
  setCampaignKey(offline, "scenarios", "S1,S4");
  setCampaignKey(offline, "deadline-factors", "1.5");
  setCampaignKey(offline, "seeds", "1");
  setCampaignKey(offline, "intervals", "8");
  setCampaignKey(offline, "algos", "all");

  CampaignSpec online = offline;
  setCampaignKey(online, "online", "1");
  setCampaignKey(online, "policies", "static");

  SolverOptions options;
  options.setInt("block-size", 3);
  options.setInt("ls-radius", 10);
  options.setDouble("time-limit-sec", 1.0);
  const CampaignOutcome offlineOut = runCampaign(offline, options);
  const CampaignOutcome onlineOut = runCampaign(online, options);
  ASSERT_EQ(offlineOut.records.size(), onlineOut.records.size());
  for (std::size_t i = 0; i < offlineOut.records.size(); ++i) {
    const CampaignRecord& a = offlineOut.records[i];
    const CampaignRecord& b = onlineOut.records[i];
    ASSERT_EQ(a.instance, b.instance);
    ASSERT_EQ(a.solver, b.solver);
    EXPECT_EQ(a.skipped, b.skipped);
    if (a.skipped || !a.feasible) continue;
    EXPECT_EQ(b.resolves, 0);
    EXPECT_TRUE(b.deadlineMet);
    // The online record's billed cost must equal its own plan's cost for
    // every solver; the cross-run equality additionally holds for all
    // non-anytime solvers (the wall-clock-budgeted `bnb` may explore
    // different node counts between the two campaign runs).
    EXPECT_EQ(b.cost, b.forecastCost) << a.solver << " on " << a.instance;
    if (a.solver == "bnb") continue;
    EXPECT_EQ(b.cost, a.cost) << a.solver << " on " << a.instance;
  }
}

} // namespace
} // namespace cawo
