// SolveResult::stats key vocabulary: every key any registered solver
// emits must be in the documented set (docs/formats.md, "SolveResult
// stats keys") — a new stat needs a doc entry before it ships, because
// the obs layer harvests these keys verbatim into global counters
// (`solve.stats.<key>`).

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "obs/metrics.hpp"
#include "sim/instance.hpp"
#include "solver/registry.hpp"
#include "test_util.hpp"

namespace cawo {
namespace {

/// The documented vocabulary — keep in lockstep with docs/formats.md.
const std::set<std::string>& documentedStatsKeys() {
  static const std::set<std::string> keys = {
      "asap-makespan",   // ASAP: makespan of the as-soon-as-possible run
      "greedy-us",       // greedy construction wall time (µs)
      "ls-us",           // local-search wall time (µs)
      "ls-rounds",       // local-search improvement rounds
      "ls-moves",        // moves applied across all rounds
      "ls-probes",       // candidate targets scored across all rounds
      "ls-initial-cost", // cost before the climb
      "ls-final-cost",   // cost after the climb
      "ls-restarts",     // restarts executed (multi-start LS)
      "ls-best-restart", // index of the winning restart
      "nodes-explored",  // exact solvers: search nodes expanded
      "mapping-makespan",// re-mapping solvers: makespan of the new mapping
  };
  return keys;
}

TEST(SolverStatsKeys, EveryEmittedKeyIsDocumented) {
  InstanceSpec spec;
  spec.family = WorkflowFamily::Atacseq;
  spec.targetTasks = 40;
  spec.nodesPerType = 1;
  spec.scenario = "S2";
  spec.deadlineFactor = 2.0;
  spec.numIntervals = 8;
  spec.seed = 97;
  const Instance inst = buildInstance(spec);

  SolveRequest request;
  request.gc = &inst.gc;
  request.profile = &inst.profile;
  request.deadline = inst.deadline;
  request.graph = &inst.graph;
  request.platform = &inst.platform;
  request.options.setInt("max-nodes", 200'000);
  request.options.setDouble("time-limit-sec", 10.0);
  // Exercise the multi-start path so ls-restarts/ls-best-restart appear.
  request.options.setInt("ls-restarts", 2);

  // Single-processor fixture for the exact solvers.
  const EnhancedGraph chainGc =
      testing::makeChainGc({2, 3, 1}, /*idle=*/1, /*work=*/4);
  const PowerProfile chainProfile = PowerProfile::uniform(20, 3);
  SolveRequest chainRequest;
  chainRequest.gc = &chainGc;
  chainRequest.profile = &chainProfile;
  chainRequest.deadline = 14;
  chainRequest.options = request.options;

  const SolverRegistry& registry = SolverRegistry::global();
  std::set<std::string> seen;
  for (const std::string& name : registry.names()) {
    const SolverPtr solver = registry.create(name);
    const SolveRequest& req =
        solver->info().singleProcOnly ? chainRequest : request;
    const SolveResult result = solver->solve(req);
    for (const auto& [key, value] : result.stats) {
      EXPECT_TRUE(documentedStatsKeys().count(key))
          << "solver " << name << " emits undocumented stats key \"" << key
          << "\" — add it to docs/formats.md and documentedStatsKeys()";
      seen.insert(key);
    }
  }

  // The inverse direction keeps the doc honest: every documented key is
  // actually produced by some solver on this small instance.
  for (const std::string& key : documentedStatsKeys())
    EXPECT_TRUE(seen.count(key))
        << "documented stats key \"" << key << "\" is emitted by no solver "
        << "— stale docs/formats.md entry?";
}

TEST(SolverStatsKeys, HarvestNamespacesKeysUnderSolveStats) {
  // The obs harvest turns each key into counter "solve.stats.<key>".
  obs::MetricsRegistry& global = obs::MetricsRegistry::global();
  const std::int64_t before =
      global.counter("solve.stats.ls-rounds").value();
  obs::harvestSolveStats({{"ls-rounds", 4}});
  EXPECT_EQ(global.counter("solve.stats.ls-rounds").value(), before + 4);
}

} // namespace
} // namespace cawo
