// The unified Solver API and registry: canonical listing, lookup
// round-trips, bracket parameters, glob selection, per-family solve
// behaviour, and golden parity between the registry-driven runner and the
// legacy string dispatch (scheduleAsap + runVariant).

#include <gtest/gtest.h>

#include <algorithm>

#include "core/asap.hpp"
#include "core/carbon_cost.hpp"
#include "core/cawosched.hpp"
#include "exp/campaign_runner.hpp"
#include "sim/instance.hpp"
#include "sim/runner.hpp"
#include "solver/registry.hpp"
#include "test_util.hpp"
#include "util/require.hpp"

namespace cawo {
namespace {

InstanceSpec smallSpec() {
  InstanceSpec spec;
  spec.family = WorkflowFamily::Atacseq;
  spec.targetTasks = 40;
  spec.nodesPerType = 1;
  spec.scenario = "S2";
  spec.deadlineFactor = 2.0;
  spec.numIntervals = 8;
  spec.seed = 97;
  return spec;
}

/// Shared tiny single-processor fixture for the exact solvers.
struct ChainFixture {
  EnhancedGraph gc = testing::makeChainGc({2, 3, 1}, /*idle=*/1, /*work=*/4);
  PowerProfile profile = PowerProfile::uniform(/*horizon=*/20, /*green=*/3);
  Time deadline = 14;
};

TEST(SolverRegistry, ListsCanonicalSolversInOrder) {
  const auto names = SolverRegistry::global().names();
  ASSERT_GE(names.size(), 19u);
  EXPECT_EQ(names.front(), "ASAP");

  // ASAP followed by the 16 variants — the bench suite prefix — then the
  // extension families.
  const auto suite = suiteSolverNames();
  ASSERT_EQ(suite.size(), 17u);
  for (std::size_t i = 0; i < suite.size(); ++i)
    EXPECT_EQ(names[i], suite[i]) << "suite prefix mismatch at " << i;
  for (const char* extra : {"greenheft", "bnb", "dp"})
    EXPECT_NE(std::find(names.begin(), names.end(), extra), names.end())
        << extra;
}

TEST(SolverRegistry, LookupRoundTripsAllNames) {
  const SolverRegistry& registry = SolverRegistry::global();
  for (const std::string& name : registry.names()) {
    ASSERT_TRUE(registry.contains(name)) << name;
    const SolverPtr solver = registry.create(name);
    ASSERT_NE(solver, nullptr) << name;
    EXPECT_EQ(solver->info().name, name);
  }
}

TEST(SolverRegistry, UnknownNamesThrowPreconditionError) {
  const SolverRegistry& registry = SolverRegistry::global();
  EXPECT_FALSE(registry.contains("no-such-solver"));
  EXPECT_THROW((void)registry.create("no-such-solver"), PreconditionError);
  EXPECT_THROW((void)registry.select("no-such-solver"), PreconditionError);
  EXPECT_THROW((void)registry.select("zz*"), PreconditionError);
  EXPECT_THROW((void)registry.select(","), PreconditionError);
}

TEST(SolverRegistry, BracketParametersReachTheBaseFactory) {
  const SolverRegistry& registry = SolverRegistry::global();
  EXPECT_TRUE(registry.contains("greenheft[0.25]"));
  const SolverPtr solver = registry.create("greenheft[0.25]");
  EXPECT_EQ(solver->info().name, "greenheft[0.25]");
  EXPECT_TRUE(solver->info().remapsGraph);
  EXPECT_THROW((void)registry.create("greenheft[nan-ish"), PreconditionError);
  EXPECT_THROW((void)registry.create("greenheft[oops]"), PreconditionError);
}

TEST(SolverRegistry, GlobSelectionPreservesCanonicalOrder) {
  const SolverRegistry& registry = SolverRegistry::global();
  const auto pressFamily = registry.select("press*");
  ASSERT_EQ(pressFamily.size(), 8u);
  EXPECT_EQ(pressFamily.front(), "press");
  EXPECT_EQ(pressFamily.back(), "pressWR-LS");

  EXPECT_EQ(registry.select("all"), registry.names());
  EXPECT_EQ(registry.select(""), registry.names());

  // Comma lists keep entry order and de-duplicate.
  const auto picked = registry.select("bnb,ASAP,bnb");
  ASSERT_EQ(picked.size(), 2u);
  EXPECT_EQ(picked[0], "bnb");
  EXPECT_EQ(picked[1], "ASAP");
}

TEST(SolverRegistry, DuplicateRegistrationThrows) {
  SolverRegistry local;
  registerBuiltinSolvers(local);
  EXPECT_THROW(
      local.registerFactory("ASAP", [](const std::string&) -> SolverPtr {
        return nullptr;
      }),
      PreconditionError);
  EXPECT_THROW(
      local.registerFactory("mine[0.5]", [](const std::string&) -> SolverPtr {
        return nullptr;
      }),
      PreconditionError);
}

TEST(SolverApi, EverySolverSolvesASmallInstance) {
  const Instance inst = buildInstance(smallSpec());
  SolveRequest request;
  request.gc = &inst.gc;
  request.profile = &inst.profile;
  request.deadline = inst.deadline;
  request.graph = &inst.graph;
  request.platform = &inst.platform;
  // Keep the exact solver affordable on the multi-proc instance.
  request.options.setInt("max-nodes", 200'000);
  request.options.setDouble("time-limit-sec", 10.0);

  const ChainFixture chain;
  SolveRequest chainRequest;
  chainRequest.gc = &chain.gc;
  chainRequest.profile = &chain.profile;
  chainRequest.deadline = chain.deadline;

  const SolverRegistry& registry = SolverRegistry::global();
  for (const std::string& name : registry.names()) {
    const SolverPtr solver = registry.create(name);
    const SolverInfo meta = solver->info();
    const SolveRequest& req =
        meta.singleProcOnly ? chainRequest : request;

    const SolveResult result = solver->solve(req);
    EXPECT_TRUE(result.feasible) << name << ": "
                                 << result.validation.message;
    EXPECT_GE(result.cost, 0) << name;
    EXPECT_GE(result.wallMs, 0.0) << name;

    const EnhancedGraph& effectiveGc =
        result.remappedGc ? *result.remappedGc : *req.gc;
    EXPECT_TRUE(
        validateSchedule(effectiveGc, result.schedule,
                         result.effectiveDeadline)
            .ok)
        << name;
    if (meta.remapsGraph) {
      EXPECT_NE(result.remappedGc, nullptr) << name;
      EXPECT_GE(result.effectiveDeadline, req.deadline) << name;
    } else {
      EXPECT_EQ(result.remappedGc, nullptr) << name;
      EXPECT_EQ(result.effectiveDeadline, req.deadline) << name;
    }
  }
}

TEST(SolverApi, ExactSolversAgreeOnTheChainInstance) {
  const ChainFixture chain;
  SolveRequest request;
  request.gc = &chain.gc;
  request.profile = &chain.profile;
  request.deadline = chain.deadline;

  const SolverRegistry& registry = SolverRegistry::global();
  const SolveResult bnb = registry.create("bnb")->solve(request);
  const SolveResult dpPoly = registry.create("dp")->solve(request);
  request.options.set("method", "pseudo");
  const SolveResult dpPseudo = registry.create("dp")->solve(request);

  EXPECT_TRUE(bnb.provedOptimal);
  EXPECT_TRUE(dpPoly.provedOptimal);
  EXPECT_EQ(bnb.cost, dpPoly.cost);
  EXPECT_EQ(dpPoly.cost, dpPseudo.cost);
  EXPECT_GT(bnb.stats.at("nodes-explored"), 0);
}

TEST(SolverApi, MissingRequestFieldsThrow) {
  const ChainFixture chain;
  const SolverRegistry& registry = SolverRegistry::global();

  SolveRequest request; // gc/profile missing
  EXPECT_THROW((void)registry.create("ASAP")->solve(request),
               PreconditionError);

  request.gc = &chain.gc;
  request.profile = &chain.profile;
  request.deadline = 0; // not positive
  EXPECT_THROW((void)registry.create("ASAP")->solve(request),
               PreconditionError);

  // greenheft re-runs the mapping pass and needs the workflow context.
  request.deadline = chain.deadline;
  EXPECT_THROW((void)registry.create("greenheft")->solve(request),
               PreconditionError);
}

TEST(SolverApi, OptionsBagTypedAccessors) {
  SolverOptions options;
  options.set("name", "value").setInt("k", 3).setDouble("alpha", 0.25);

  EXPECT_TRUE(options.has("k"));
  EXPECT_FALSE(options.has("missing"));
  EXPECT_EQ(options.getInt("k", -1), 3);
  EXPECT_EQ(options.getInt("missing", -1), -1);
  EXPECT_DOUBLE_EQ(options.getDouble("alpha", 0.0), 0.25);
  EXPECT_EQ(options.getString("name", ""), "value");
  EXPECT_THROW((void)options.getInt("name", 0), PreconditionError);
  EXPECT_THROW((void)options.getDouble("name", 0.0), PreconditionError);
}

TEST(SolverApi, OptionsBagDoublesRoundTripExactly) {
  SolverOptions options;
  for (const double value : {0.123456789, 1e-300, 0.1, 120.0, -2.5e17}) {
    options.setDouble("x", value);
    EXPECT_EQ(options.getDouble("x", 0.0), value)
        << "stored as " << options.getString("x", "");
  }
  options.setDouble("alpha", 0.123456789);
  EXPECT_EQ(options.getString("alpha", ""), "0.123456789");
  options.setDouble("tiny", 1e-300);
  EXPECT_EQ(options.getString("tiny", ""), "1e-300");
}

TEST(SolverApi, OptionsBagRejectsPartialNumbers) {
  SolverOptions options;
  options.set("block-size", "3x").set("ls-radius", "2.5").set("alpha", "0.5y");
  const auto messageOf = [&](auto&& read) {
    try {
      read();
    } catch (const PreconditionError& e) {
      return std::string(e.what());
    }
    return std::string("(accepted)");
  };
  EXPECT_NE(messageOf([&] { (void)options.getInt("block-size", 3); })
                .find("solver option \"block-size\": \"3x\" is not an integer"),
            std::string::npos);
  EXPECT_NE(messageOf([&] { (void)options.getInt("ls-radius", 10); })
                .find("solver option \"ls-radius\": \"2.5\" is not an integer"),
            std::string::npos);
  EXPECT_NE(messageOf([&] { (void)options.getDouble("alpha", 0.0); })
                .find("solver option \"alpha\": \"0.5y\" is not a number"),
            std::string::npos);
  // A NaN time limit would silently mean no limit: non-finite values are
  // rejected like any other malformed number.
  for (const std::string value : {"inf", "-inf", "nan", "1e999"}) {
    options.set("time-limit-sec", value);
    EXPECT_NE(messageOf([&] { (void)options.getDouble("time-limit-sec", 1); })
                  .find("solver option \"time-limit-sec\": \"" + value +
                        "\" is not a finite number"),
              std::string::npos)
        << value;
  }
  // Whole numbers still read as doubles, and absent keys fall back.
  EXPECT_EQ(options.setInt("k", 4).getDouble("k", 0.0), 4.0);
  EXPECT_EQ(options.getInt("missing", 7), 7);
}

// Golden parity: the registry-driven runner must reproduce the legacy
// string-dispatch costs bit-for-bit on a fixed-seed instance.
TEST(SolverApi, RegistryRunnerMatchesLegacyDispatch) {
  const Instance inst = buildInstance(smallSpec());
  const CaWoParams params; // paper defaults

  // Legacy path: direct calls, exactly as the pre-registry runner did.
  std::vector<std::pair<std::string, Cost>> legacy;
  legacy.emplace_back(
      "ASAP", evaluateCost(inst.gc, inst.profile, scheduleAsap(inst.gc)));
  for (const VariantSpec& v : allVariants()) {
    const Schedule s =
        runVariant(inst.gc, inst.profile, inst.deadline, v, params);
    legacy.emplace_back(v.name(), evaluateCost(inst.gc, inst.profile, s));
  }

  // Registry path, through the campaign runner.
  const std::vector<CampaignRecord> records =
      runCampaign(testing::singleInstanceCampaign(smallSpec())).records;
  ASSERT_EQ(records.size(), legacy.size());
  ASSERT_EQ(records.size(), suiteSolverNames().size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_TRUE(records[i].feasible) << legacy[i].first;
    EXPECT_EQ(records[i].solver, legacy[i].first);
    EXPECT_EQ(records[i].cost, legacy[i].second)
        << legacy[i].first << " diverged from the legacy dispatch";
  }
}

// Non-default tuning parameters must flow through the options bag
// unchanged.
TEST(SolverApi, TuningParametersFlowThroughOptionsBag) {
  const Instance inst = buildInstance(smallSpec());
  CaWoParams params;
  params.blockSize = 2;
  params.lsRadius = 4;

  const VariantSpec variant = VariantSpec::parse("pressWR-LS");
  const Cost legacy = evaluateCost(
      inst.gc, inst.profile,
      runVariant(inst.gc, inst.profile, inst.deadline, variant, params));

  SolveRequest request;
  request.gc = &inst.gc;
  request.profile = &inst.profile;
  request.deadline = inst.deadline;
  request.options.setInt("block-size", params.blockSize)
      .setInt("ls-radius", params.lsRadius);
  const SolveResult viaRegistry =
      SolverRegistry::global().create("pressWR-LS")->solve(request);
  EXPECT_EQ(viaRegistry.cost, legacy);
}

// block-size and ls-radius are checked when the options are read: a
// negative radius is rejected even by variants that never run local
// search, and a block size past INT_MAX is rejected instead of truncated.
TEST(SolverApi, OutOfRangeTuningOptionsThrow) {
  const Instance inst = buildInstance(smallSpec());
  const SolverRegistry& registry = SolverRegistry::global();
  SolveRequest request;
  request.gc = &inst.gc;
  request.profile = &inst.profile;
  request.deadline = inst.deadline;
  request.graph = &inst.graph;
  request.platform = &inst.platform;

  const std::vector<std::pair<std::string, std::int64_t>> bad = {
      {"ls-radius", -5},
      {"block-size", 0},
      {"block-size", -3},
      {"block-size", 4294967297LL}, // 2^32 + 1: static_cast<int> gives 1
  };
  for (const auto& [key, value] : bad) {
    for (const char* name : {"pressWR", "pressWR-LS", "greenheft"}) {
      SolveRequest r = request;
      r.options.setInt(key, value);
      EXPECT_THROW((void)registry.create(name)->solve(r), PreconditionError)
          << name << " accepted " << key << "=" << value;
      try {
        (void)registry.create(name)->solve(r);
      } catch (const PreconditionError& e) {
        EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
            << name << ": " << e.what();
      }
    }
  }

  // The boundaries themselves are accepted.
  request.options.setInt("ls-radius", 0).setInt("block-size", 1);
  EXPECT_NO_THROW((void)registry.create("pressWR-LS")->solve(request));
}

// The bracket parameter is part of the solver's identity and wins over
// a conflicting options-bag alpha.
TEST(SolverApi, BracketAlphaWinsOverOptionsBag) {
  const Instance inst = buildInstance(smallSpec());
  SolveRequest request;
  request.gc = &inst.gc;
  request.profile = &inst.profile;
  request.deadline = inst.deadline;
  request.graph = &inst.graph;
  request.platform = &inst.platform;

  const SolverRegistry& registry = SolverRegistry::global();
  const Cost plain =
      registry.create("greenheft[1.0]")->solve(request).cost;
  request.options.setDouble("alpha", 0.0);
  const Cost withConflictingOption =
      registry.create("greenheft[1.0]")->solve(request).cost;
  EXPECT_EQ(plain, withConflictingOption);

  // Unbracketed "greenheft" does honour the bag.
  SolveRequest viaOptionRequest = request;
  viaOptionRequest.options = SolverOptions{};
  viaOptionRequest.options.setDouble("alpha", 1.0);
  const Cost viaOption =
      registry.create("greenheft")->solve(viaOptionRequest).cost;
  EXPECT_EQ(viaOption, plain);
}

TEST(SolverApi, SuiteSelectionRunsThroughRunner) {
  CampaignSpec campaign = testing::singleInstanceCampaign(smallSpec());
  campaign.algos = "ASAP,pressWR-LS";
  const CampaignOutcome outcome = runCampaign(campaign);
  testing::expectAllFeasible(outcome);
  const std::vector<CampaignRecord>& picked = outcome.records;
  ASSERT_EQ(picked.size(), 2u);
  EXPECT_EQ(picked[0].solver, "ASAP");
  EXPECT_EQ(picked[1].solver, "pressWR-LS");
  EXPECT_LE(picked[1].cost, picked[0].cost);
}

} // namespace
} // namespace cawo
