#include <gtest/gtest.h>

#include "util/require.hpp"

#include "core/asap.hpp"
#include "core/carbon_cost.hpp"
#include "oracles/carbon_cost_reference.hpp"
#include "test_util.hpp"

namespace cawo {
namespace {

using oracle::evaluateCostReference;
using testing::makeChainGc;
using testing::makeGc;
using testing::makeIndependentGc;
using testing::randomProfile;
using testing::randomSchedule;

TEST(CarbonCost, HandComputedSingleTask) {
  // One task len 4 on a proc with idle 2 / work 3; budget 4 everywhere.
  // Idle-only draw 2 ≤ 4 → no cost; while running draw 5 → overflow 1.
  const EnhancedGraph gc = makeChainGc({4}, /*idle=*/2, /*work=*/3);
  const PowerProfile profile = PowerProfile::uniform(10, 4);
  Schedule s(1);
  s.setStart(0, 3);
  EXPECT_EQ(evaluateCost(gc, profile, s), 4 * 1);
}

TEST(CarbonCost, IdleFloorAccruesWithoutTasks) {
  // Idle 5 > budget 3 → overflow 2 on the whole horizon, task adds more.
  const EnhancedGraph gc = makeChainGc({2}, /*idle=*/5, /*work=*/10);
  const PowerProfile profile = PowerProfile::uniform(10, 3);
  Schedule s(1);
  s.setStart(0, 0);
  // 10 units of idle overflow 2 = 20, plus 2 units of extra work 10 = 20.
  EXPECT_EQ(evaluateCost(gc, profile, s), 40);
}

TEST(CarbonCost, TaskSpanningIntervalBoundary) {
  // Budget 10 in [0,5), 0 in [5,10). Task len 4 at start 3: 2 units in the
  // green interval (draw 3 ≤ 10 → 0), 2 units in the dark one (draw 3 → 6).
  const EnhancedGraph gc = makeChainGc({4}, 1, 2);
  PowerProfile profile;
  profile.appendInterval(5, 10);
  profile.appendInterval(5, 0);
  Schedule s(1);
  s.setStart(0, 3);
  // Idle floor in dark interval: 1×5 = 5 on the 3 task-free units... careful:
  // idle applies always; during the task the draw is 3.
  // [0,3): idle 1 ≤ 10 → 0. [3,5): 3 ≤ 10 → 0. [5,7): draw 3 → 6. [7,10): 1×3.
  EXPECT_EQ(evaluateCost(gc, profile, s), 6 + 3);
}

TEST(CarbonCost, ParallelTasksAddPower) {
  const EnhancedGraph gc = makeIndependentGc({3, 3}, {0, 0}, {4, 5});
  const PowerProfile profile = PowerProfile::uniform(6, 6);
  Schedule s(2);
  s.setStart(0, 0);
  s.setStart(1, 0);
  // Together they draw 9 > 6 → overflow 3 for 3 units.
  EXPECT_EQ(evaluateCost(gc, profile, s), 9);
  s.setStart(1, 3); // sequential → each draws below budget
  EXPECT_EQ(evaluateCost(gc, profile, s), 0);
}

TEST(CarbonCost, ZeroLengthTasksAreFree) {
  const EnhancedGraph gc = makeChainGc({0, 0}, 0, 100);
  const PowerProfile profile = PowerProfile::uniform(5, 0);
  Schedule s(2);
  s.setStart(0, 0);
  s.setStart(1, 0);
  EXPECT_EQ(evaluateCost(gc, profile, s), 0);
}

TEST(CarbonCost, IncompleteScheduleIsRejected) {
  const EnhancedGraph gc = makeChainGc({2});
  const PowerProfile profile = PowerProfile::uniform(5, 0);
  Schedule s(1);
  EXPECT_THROW(evaluateCost(gc, profile, s), PreconditionError);
}

TEST(CarbonCost, ScheduleBeyondHorizonIsRejected) {
  const EnhancedGraph gc = makeChainGc({4});
  const PowerProfile profile = PowerProfile::uniform(5, 0);
  Schedule s(1);
  s.setStart(0, 3);
  EXPECT_THROW(evaluateCost(gc, profile, s), PreconditionError);
}

TEST(CarbonCost, BreakdownTotalsMatchEvaluate) {
  const EnhancedGraph gc = makeGc({{0, 3}, {1, 4}, {0, 2}},
                                  {{0, 1}, {1, 2}}, {2, 3}, {5, 7});
  PowerProfile profile;
  profile.appendInterval(6, 8);
  profile.appendInterval(6, 2);
  profile.appendInterval(8, 12);
  const Schedule s = scheduleAsap(gc);
  const CostBreakdown b = evaluateCostBreakdown(gc, profile, s);
  EXPECT_EQ(b.total, evaluateCost(gc, profile, s));
  Cost sum = 0;
  for (const Cost c : b.perInterval) sum += c;
  EXPECT_EQ(sum, b.total);
  EXPECT_EQ(b.brownEnergyUsed, b.total);
  EXPECT_GE(b.peakPower, gc.totalIdlePower());
}

// Property: the sweep-line evaluator agrees with the per-time-unit
// reference on randomised instances, schedules and profiles.
class CostEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(CostEquivalence, SweepMatchesReference) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  // Random multiproc graph from parts.
  const int numProcs = static_cast<int>(rng.uniformInt(1, 4));
  const int numTasks = static_cast<int>(rng.uniformInt(1, 12));
  std::vector<std::pair<ProcId, Time>> tasks;
  std::vector<std::pair<TaskId, TaskId>> edges;
  for (int i = 0; i < numTasks; ++i)
    tasks.push_back({static_cast<ProcId>(rng.uniformInt(0, numProcs - 1)),
                     rng.uniformInt(0, 5)});
  for (int i = 0; i < numTasks; ++i)
    for (int j = i + 1; j < numTasks; ++j)
      if (rng.uniform01() < 0.2)
        edges.push_back({static_cast<TaskId>(i), static_cast<TaskId>(j)});
  std::vector<Power> idle, work;
  for (int p = 0; p < numProcs; ++p) {
    idle.push_back(rng.uniformInt(0, 5));
    work.push_back(rng.uniformInt(1, 9));
  }
  const EnhancedGraph gc = testing::makeGc(tasks, edges, idle, work);

  const Time deadline = gc.criticalPathLength() + rng.uniformInt(0, 20);
  const Time horizon = std::max<Time>(deadline, 1);
  const PowerProfile profile = randomProfile(horizon, 4, 0, 15, rng);
  const Schedule s = randomSchedule(gc, deadline, rng);
  ASSERT_TRUE(validateSchedule(gc, s, deadline).ok);

  EXPECT_EQ(evaluateCost(gc, profile, s),
            evaluateCostReference(gc, profile, s));
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, CostEquivalence,
                         ::testing::Range(0, 40));

} // namespace
} // namespace cawo
