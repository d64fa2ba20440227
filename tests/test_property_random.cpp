// Randomised cross-cutting properties over the whole stack: random
// workflows through HEFT and the enhanced graph, every variant validated,
// evaluators cross-checked, exact solver dominance on small instances.

#include <gtest/gtest.h>

#include "core/asap.hpp"
#include "core/carbon_cost.hpp"
#include "core/cawosched.hpp"
#include "core/local_search.hpp"
#include "exact/branch_and_bound.hpp"
#include "heft/heft.hpp"
#include "oracles/carbon_cost_reference.hpp"
#include "profile/scenario.hpp"
#include "test_util.hpp"
#include "workflow/generators.hpp"

namespace cawo {
namespace {

using oracle::evaluateCostReference;

struct RandomPipelineCase {
  EnhancedGraph gc;
  PowerProfile profile;
  Time deadline;
};

RandomPipelineCase buildRandomCase(std::uint64_t seed, int nTasks,
                                   double deadlineFactor) {
  Rng rng(seed);
  WorkflowGenOptions gopts;
  gopts.targetTasks = nTasks;
  gopts.seed = seed;
  const TaskGraph g =
      genLayeredRandom(nTasks, std::max(2, nTasks / 5), 3, gopts);
  const Platform pf = Platform::scaled(1);
  const HeftResult heft = runHeft(g, pf);
  LinkPowerOptions lp;
  lp.seed = seed * 31;
  EnhancedGraph gc = EnhancedGraph::build(g, pf, heft.mapping, lp,
                                          &heft.startTimes);
  const Time d = asapMakespan(gc);
  const Time deadline =
      static_cast<Time>(deadlineFactor * static_cast<double>(d)) + 1;
  Power sumWork = 0;
  for (ProcId p = 0; p < gc.numProcs(); ++p) sumWork += gc.workPower(p);
  const auto scenario = static_cast<Scenario>(rng.uniformInt(0, 3));
  PowerProfile profile =
      generateScenario(scenario, deadline, gc.totalIdlePower(), sumWork,
                       {8, 0.1, seed * 7});
  return {std::move(gc), std::move(profile), deadline};
}

class RandomPipeline : public ::testing::TestWithParam<int> {};

TEST_P(RandomPipeline, EveryVariantProducesAValidDominatedSchedule) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const RandomPipelineCase c =
      buildRandomCase(seed + 1, 20 + static_cast<int>(seed % 3) * 15,
                      1.0 + 0.5 * static_cast<double>(seed % 4));

  const Schedule asap = scheduleAsap(c.gc);
  ASSERT_TRUE(validateSchedule(c.gc, asap, c.deadline).ok);
  const Cost asapSweep = evaluateCost(c.gc, c.profile, asap);
  EXPECT_EQ(asapSweep, evaluateCostReference(c.gc, c.profile, asap));

  for (const VariantSpec& v : allVariants()) {
    const Schedule s = runVariant(c.gc, c.profile, c.deadline, v);
    const auto valid = validateSchedule(c.gc, s, c.deadline);
    ASSERT_TRUE(valid.ok) << v.name() << ": " << valid.message;
    // The two cost evaluators must agree on every produced schedule.
    EXPECT_EQ(evaluateCost(c.gc, c.profile, s),
              evaluateCostReference(c.gc, c.profile, s))
        << v.name();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPipeline, ::testing::Range(0, 12));

class LocalSearchMonotone : public ::testing::TestWithParam<int> {};

TEST_P(LocalSearchMonotone, NeverIncreasesCostOnRandomSchedules) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const RandomPipelineCase c = buildRandomCase(seed + 100, 25, 2.0);
  Rng rng(seed * 13 + 5);
  Schedule s = testing::randomSchedule(c.gc, c.deadline, rng);
  const Cost before = evaluateCost(c.gc, c.profile, s);
  const LocalSearchStats stats = localSearch(c.gc, c.profile, c.deadline, s);
  EXPECT_EQ(stats.initialCost, before);
  EXPECT_LE(stats.finalCost, before);
  EXPECT_EQ(stats.finalCost, evaluateCost(c.gc, c.profile, s));
  EXPECT_TRUE(validateSchedule(c.gc, s, c.deadline).ok);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LocalSearchMonotone, ::testing::Range(0, 10));

class ExactDominance : public ::testing::TestWithParam<int> {};

TEST_P(ExactDominance, BnbIsALowerBoundForAllHeuristics) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(seed * 7919 + 1);
  // Tiny multiproc instance the B&B can certify quickly.
  std::vector<std::pair<ProcId, Time>> tasks;
  std::vector<std::pair<TaskId, TaskId>> edges;
  const int n = 4;
  for (int i = 0; i < n; ++i)
    tasks.push_back({static_cast<ProcId>(rng.uniformInt(0, 1)),
                     rng.uniformInt(1, 3)});
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j)
      if (rng.uniform01() < 0.3)
        edges.push_back({static_cast<TaskId>(i), static_cast<TaskId>(j)});
  const EnhancedGraph gc =
      testing::makeGc(tasks, edges, {1, 2}, {4, 6});
  const Time deadline = asapMakespan(gc) + 5;
  const PowerProfile profile = testing::randomProfile(deadline, 3, 0, 12, rng);

  const BnbResult exact = solveExact(gc, profile, deadline);
  ASSERT_TRUE(exact.provedOptimal);
  EXPECT_TRUE(validateSchedule(gc, exact.schedule, deadline).ok);
  EXPECT_EQ(exact.cost, evaluateCost(gc, profile, exact.schedule));

  const Schedule asap = scheduleAsap(gc);
  EXPECT_LE(exact.cost, evaluateCost(gc, profile, asap));
  for (const VariantSpec& v : allVariants()) {
    const Schedule s = runVariant(gc, profile, deadline, v);
    EXPECT_LE(exact.cost, evaluateCost(gc, profile, s)) << v.name();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactDominance, ::testing::Range(0, 10));

} // namespace
} // namespace cawo
