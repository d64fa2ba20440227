#include <gtest/gtest.h>

#include "util/require.hpp"

#include "core/asap.hpp"
#include "core/carbon_cost.hpp"
#include "core/cawosched.hpp"
#include "exact/branch_and_bound.hpp"
#include "test_util.hpp"
#include "three_partition.hpp"

namespace cawo {
namespace {

using testing::makeGc;

TEST(BranchAndBound, FindsTheObviousOptimum) {
  // Two independent unit-power tasks and a single interval that can host
  // only one at a time without overflow.
  const EnhancedGraph gc =
      testing::makeIndependentGc({3, 3}, {0, 0}, {4, 4});
  const PowerProfile p = PowerProfile::uniform(10, 4);
  const BnbResult res = solveExact(gc, p, 10);
  ASSERT_TRUE(res.provedOptimal);
  EXPECT_EQ(res.cost, 0); // sequential placement avoids all overflow
  EXPECT_TRUE(validateSchedule(gc, res.schedule, 10).ok);
  EXPECT_EQ(evaluateCost(gc, p, res.schedule), res.cost);
}

TEST(BranchAndBound, MatchesExhaustiveSearchOnTinyInstances) {
  Rng rng(97);
  for (int trial = 0; trial < 10; ++trial) {
    const EnhancedGraph gc = makeGc(
        {{0, static_cast<Time>(rng.uniformInt(1, 3))},
         {1, static_cast<Time>(rng.uniformInt(1, 3))},
         {0, static_cast<Time>(rng.uniformInt(1, 3))}},
        {{0, 1}}, {0, 1}, {3, 4});
    const Time deadline = asapMakespan(gc) + 4;
    const PowerProfile profile =
        testing::randomProfile(deadline, 3, 0, 8, rng);

    const BnbResult res = solveExact(gc, profile, deadline);
    ASSERT_TRUE(res.provedOptimal);

    // Exhaustive enumeration over all feasible start triples.
    Cost best = kCostInfinity;
    for (Time s0 = 0; s0 <= deadline - gc.len(0); ++s0)
      for (Time s1 = 0; s1 <= deadline - gc.len(1); ++s1)
        for (Time s2 = 0; s2 <= deadline - gc.len(2); ++s2) {
          Schedule s(3);
          s.setStart(0, s0);
          s.setStart(1, s1);
          s.setStart(2, s2);
          if (!validateSchedule(gc, s, deadline).ok) continue;
          best = std::min(best, evaluateCost(gc, profile, s));
        }
    EXPECT_EQ(res.cost, best);
  }
}

TEST(BranchAndBound, NeverWorseThanAnyHeuristic) {
  Rng rng(1234);
  const EnhancedGraph gc = makeGc(
      {{0, 2}, {1, 3}, {0, 2}, {1, 1}}, {{0, 1}, {2, 3}}, {1, 1}, {4, 5});
  const Time deadline = asapMakespan(gc) + 6;
  const PowerProfile profile = testing::randomProfile(deadline, 4, 0, 12, rng);
  const BnbResult exact = solveExact(gc, profile, deadline);
  ASSERT_TRUE(exact.provedOptimal);

  const Schedule asap = scheduleAsap(gc);
  EXPECT_LE(exact.cost, evaluateCost(gc, profile, asap));
  for (const VariantSpec& v : allVariants()) {
    const Schedule s = runVariant(gc, profile, deadline, v);
    EXPECT_LE(exact.cost, evaluateCost(gc, profile, s)) << v.name();
  }
}

TEST(BranchAndBound, RespectsNodeBudget) {
  const EnhancedGraph gc = testing::makeIndependentGc(
      {2, 2, 2, 2, 2}, {0, 0, 0, 0, 0}, {1, 1, 1, 1, 1});
  const PowerProfile p = PowerProfile::uniform(40, 0);
  BnbOptions opts;
  opts.maxNodes = 50; // far too small to finish
  const BnbResult res = solveExact(gc, p, 40, opts);
  EXPECT_FALSE(res.provedOptimal);
  // Still returns a feasible incumbent (seeded with ASAP).
  EXPECT_TRUE(validateSchedule(gc, res.schedule, 40).ok);
}

TEST(BranchAndBound, InfeasibleDeadlineIsRejected) {
  const EnhancedGraph gc = testing::makeChainGc({5, 5});
  const PowerProfile p = PowerProfile::uniform(8, 1);
  EXPECT_THROW(solveExact(gc, p, 8), PreconditionError);
}

TEST(ThreePartitionReduction, YesInstanceReachesZeroCarbon) {
  // {5,5,6, 5,6,5, 6,5,5} with B=16? Check bounds: B/4=4 < x < 8=B/2. ✓
  ThreePartitionInstance tp;
  tp.items = {5, 5, 6, 5, 6, 5, 6, 5, 5};
  tp.bound = 16;
  ASSERT_TRUE(validateThreePartition(tp).empty());
  const UcasInstance inst = buildUcasInstance(tp);
  EXPECT_EQ(inst.deadline, 3 * 16 + 2);
  const BnbResult res = solveExact(inst.gc, inst.profile, inst.deadline);
  ASSERT_TRUE(res.provedOptimal);
  EXPECT_EQ(res.cost, 0);
}

TEST(ThreePartitionReduction, NoInstanceHasPositiveCarbon) {
  // Items sum to 2B with B=14 (bounds 3.5 < x < 7) but no triple split
  // into sums of exactly 14 exists: {4,4,4,6,6,4}: triples {4,4,6}=14 ✓ —
  // pick a genuinely unsolvable multiset instead: {4,4,5,5,6,6}, B=15:
  // need two triples of sum 15: {4,5,6} and {4,5,6} → solvable. Use
  // {4,4,4,5,6,6} sum 29 ≠ 2B… construct carefully: {4,4,6,6,6,6}, B=16
  // (bounds 4 < x < 8 — x=4 fails). Use B=17: items {5,5,5,6,7,6},
  // sum=34=2·17, bounds 4.25<x<8.5 ✓. Triples summing 17: {5,5,7} and
  // {5,6,6} → solvable again. Try {5,5,6,6,6,6}, sum 34, B=17: triples from
  // four 6s and two 5s: {5,6,6}=17 ✓ twice → solvable. {5,5,5,5,7,7}:
  // sum=34: {5,5,7}=17 twice → solvable. Hmm — with n=2 many are solvable;
  // force a no-instance via parity: B odd and all items even is impossible
  // within bounds… use {6,6,6,6,6,4}: x=4 violates B/4<4. Simplest
  // no-instance: {5,5,5,6,6,7} sum 34, triples: 5+5+6=16, 5+5+7=17 ✓ and
  // {5,6,6}=17 ✓ → solvable. Use sum argument: items ≡ 1 (mod 3)… Take
  // {5,6,6,5,6,6} B=17: {5,6,6}=17 twice → solvable. To get a provable
  // no-instance, use n=2, B=18, items in (4.5, 9): {5,5,5,8,8,5} sum=36:
  // {5,5,8}=18 twice → solvable. {5,5,6,6,7,7} sum 36: {5,6,7}=18 twice →
  // solvable. {5,5,5,7,7,7} sum 36: {5,7,7}=19, {5,5,7}=17 — only mixed
  // {5,7,?}: 5+7+7=19≠18, 5+5+7=17≠18, 7+7+7=21, 5+5+5=15 → NO solution. ✓
  ThreePartitionInstance tp;
  tp.items = {5, 5, 5, 7, 7, 7};
  tp.bound = 18;
  ASSERT_TRUE(validateThreePartition(tp).empty());
  const UcasInstance inst = buildUcasInstance(tp);
  const BnbResult res = solveExact(inst.gc, inst.profile, inst.deadline);
  ASSERT_TRUE(res.provedOptimal);
  EXPECT_GT(res.cost, 0);
}

TEST(ThreePartitionReduction, ValidationCatchesBrokenInstances) {
  ThreePartitionInstance tp;
  tp.items = {1, 2};
  tp.bound = 3;
  EXPECT_FALSE(validateThreePartition(tp).empty()); // not a multiple of 3

  tp.items = {5, 5, 5};
  tp.bound = 16; // sum 15 ≠ 16
  EXPECT_FALSE(validateThreePartition(tp).empty());

  tp.items = {4, 4, 8};
  tp.bound = 16; // 4 ≤ B/4 and 8 ≥ B/2
  EXPECT_FALSE(validateThreePartition(tp).empty());
}

TEST(ThreePartitionReduction, InstanceShapeMatchesTheProof) {
  ThreePartitionInstance tp;
  tp.items = {5, 5, 6, 5, 6, 5, 6, 5, 5};
  tp.bound = 16;
  const UcasInstance inst = buildUcasInstance(tp);
  EXPECT_EQ(inst.gc.numNodes(), 9);
  EXPECT_EQ(inst.gc.numProcs(), 9);
  EXPECT_EQ(inst.profile.numIntervals(), 2u * 3 - 1);
  for (ProcId p = 0; p < inst.gc.numProcs(); ++p) {
    EXPECT_EQ(inst.gc.idlePower(p), 0);
    EXPECT_EQ(inst.gc.workPower(p), 1);
  }
  // Alternating budgets 1 / 0 and lengths B / 1.
  for (std::size_t j = 0; j < inst.profile.numIntervals(); ++j) {
    const Interval& iv = inst.profile.interval(j);
    if (j % 2 == 0) {
      EXPECT_EQ(iv.length(), 16);
      EXPECT_EQ(iv.green, 1);
    } else {
      EXPECT_EQ(iv.length(), 1);
      EXPECT_EQ(iv.green, 0);
    }
  }
}

} // namespace
} // namespace cawo
