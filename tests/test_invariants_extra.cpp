// Additional cross-cutting invariants: greedy placement grid membership,
// large-magnitude arithmetic, energy accounting identities, and a
// paper-scale (72-node) platform run.

#include <gtest/gtest.h>

#include "util/require.hpp"

#include <algorithm>
#include <set>

#include "core/asap.hpp"
#include "core/carbon_cost.hpp"
#include "core/cawosched.hpp"
#include "core/est_lst.hpp"
#include "core/greedy.hpp"
#include "core/interval_refinement.hpp"
#include "heft/heft.hpp"
#include "oracles/carbon_cost_reference.hpp"
#include "profile/scenario.hpp"
#include "sim/instance.hpp"
#include "test_util.hpp"
#include "workflow/generators.hpp"

namespace cawo {
namespace {

using oracle::evaluateCostReference;

TEST(GreedyInvariants, StartsLieOnTheCandidateGrid) {
  // Every greedy start must be either an interval begin of the (refined)
  // working grid, a boundary created by an earlier task's start/end split,
  // or the task's EST fallback. Verify against the superset of candidates.
  Rng rng(271828);
  const EnhancedGraph gc = testing::makeGc(
      {{0, 4}, {1, 3}, {0, 5}, {1, 2}, {2, 6}},
      {{0, 2}, {1, 3}}, {1, 2, 3}, {4, 5, 6});
  const Time deadline = asapMakespan(gc) * 2;
  const PowerProfile profile = testing::randomProfile(deadline, 5, 0, 20, rng);

  for (const bool refined : {false, true}) {
    GreedyOptions opts;
    opts.refined = refined;
    const Schedule s = scheduleGreedy(gc, profile, deadline, opts);

    std::set<Time> grid;
    if (refined) {
      for (const Interval& iv : refineIntervals(gc, profile, 3))
        grid.insert(iv.begin);
    } else {
      for (const Interval& iv : profile.intervals()) grid.insert(iv.begin);
    }
    const auto est = computeEst(gc);
    // Splits introduced by placed tasks add their start/end times.
    for (TaskId u = 0; u < gc.numNodes(); ++u) {
      grid.insert(s.start(u));
      grid.insert(s.end(u, gc));
    }
    for (TaskId u = 0; u < gc.numNodes(); ++u) {
      const bool onGrid = grid.count(s.start(u)) > 0;
      const bool atEst = s.start(u) >= est[static_cast<std::size_t>(u)];
      EXPECT_TRUE(onGrid && atEst)
          << "node " << u << " starts off-grid at " << s.start(u);
    }
  }
}

TEST(LargeValues, CostArithmeticStaysExactNearBigMagnitudes) {
  // Megawatt-scale powers over a long horizon: products approach 1e15 and
  // must agree between the sweep evaluator and the reference.
  const Power bigIdle = 1'000'000;
  const Power bigWork = 9'000'000;
  const EnhancedGraph gc = testing::makeChainGc({500, 700}, bigIdle, bigWork);
  PowerProfile profile;
  profile.appendInterval(600, 500'000);
  profile.appendInterval(900, 12'000'000);
  Schedule s(2);
  s.setStart(0, 0);
  s.setStart(1, 500);
  const Cost sweep = evaluateCost(gc, profile, s);
  const Cost reference = evaluateCostReference(gc, profile, s);
  EXPECT_EQ(sweep, reference);
  EXPECT_GT(sweep, 0);
}

TEST(EnergyAccounting, GreenPlusBrownEqualsConsumption) {
  // Total platform energy = Σ_t P_t must split exactly into green and
  // brown parts reported by the breakdown.
  Rng rng(5150);
  const EnhancedGraph gc = testing::makeGc(
      {{0, 3}, {1, 4}, {0, 2}}, {{0, 2}}, {2, 3}, {5, 7});
  const Time deadline = asapMakespan(gc) + 10;
  const PowerProfile profile = testing::randomProfile(deadline, 4, 0, 20, rng);
  const Schedule s = testing::randomSchedule(gc, deadline, rng);
  const CostBreakdown b = evaluateCostBreakdown(gc, profile, s);

  Cost consumed = gc.totalIdlePower() * profile.horizon();
  for (TaskId u = 0; u < gc.numNodes(); ++u)
    consumed += static_cast<Cost>(gc.workPower(gc.procOf(u))) * gc.len(u);
  EXPECT_EQ(b.greenEnergyUsed + b.brownEnergyUsed, consumed);
  EXPECT_EQ(b.brownEnergyUsed, b.total);
}

TEST(PaperScale, SmallPaperClusterRunsEndToEnd) {
  // The actual 72-node cluster of the paper (6 types × 12 nodes) with a
  // mid-sized workflow: the full pipeline must hold its invariants at
  // this processor count too (hundreds of link processors).
  WorkflowGenOptions gopts;
  gopts.targetTasks = 300;
  gopts.seed = 31337;
  const TaskGraph g = generateWorkflow(WorkflowFamily::Atacseq, gopts);
  const Platform pf = Platform::paperSmall();
  ASSERT_EQ(pf.numProcessors(), 72);

  const HeftResult heft = runHeft(g, pf);
  const EnhancedGraph gc =
      EnhancedGraph::build(g, pf, heft.mapping, {}, &heft.startTimes);
  EXPECT_GT(gc.numLinks(), 0);

  const Time deadline = 2 * asapMakespan(gc);
  Power sumWork = 0;
  for (ProcId p = 0; p < gc.numProcs(); ++p) sumWork += gc.workPower(p);
  const PowerProfile profile = generateScenario(
      Scenario::S1, deadline, gc.totalIdlePower(), sumWork, {24, 0.1, 8});

  const Schedule asap = scheduleAsap(gc);
  const Cost asapCost = evaluateCost(gc, profile, asap);
  const Schedule tuned = runVariant(gc, profile, deadline,
                                    VariantSpec::parse("pressWR-LS"));
  const auto valid = validateSchedule(gc, tuned, deadline);
  ASSERT_TRUE(valid.ok) << valid.message;
  EXPECT_LE(evaluateCost(gc, profile, tuned), asapCost);
}

TEST(GreedyInvariants, ZeroSlackInstanceEqualsAsap) {
  // With deadline == ASAP makespan on a single chain there is no choice:
  // every variant must reproduce the ASAP schedule exactly.
  const EnhancedGraph gc = testing::makeChainGc({3, 4, 5}, 1, 2);
  const Time deadline = asapMakespan(gc);
  const PowerProfile profile = PowerProfile::uniform(deadline, 3);
  const Schedule asap = scheduleAsap(gc);
  for (const VariantSpec& v : allVariants()) {
    const Schedule s = runVariant(gc, profile, deadline, v);
    for (TaskId u = 0; u < gc.numNodes(); ++u)
      EXPECT_EQ(s.start(u), asap.start(u)) << v.name();
  }
}

TEST(GreedyInvariants, SingleIntervalProfileIsCostNeutral) {
  // A flat profile makes every placement equivalent cost-wise; the greedy
  // must still produce a feasible schedule and the LS must not cycle.
  const EnhancedGraph gc = testing::makeGc(
      {{0, 3}, {1, 4}, {0, 2}}, {{0, 1}}, {1, 1}, {2, 2});
  const Time deadline = asapMakespan(gc) * 3;
  const PowerProfile profile = PowerProfile::uniform(deadline, 100);
  for (const VariantSpec& v : allVariants()) {
    const Schedule s = runVariant(gc, profile, deadline, v);
    EXPECT_TRUE(validateSchedule(gc, s, deadline).ok) << v.name();
    EXPECT_EQ(evaluateCost(gc, profile, s), 0) << v.name();
  }
}

TEST(InstanceGrid, IntervalCountIsHonoured) {
  InstanceSpec spec;
  spec.targetTasks = 40;
  spec.nodesPerType = 1;
  spec.numIntervals = 7;
  spec.seed = 3;
  const Instance inst = buildInstance(spec);
  EXPECT_LE(inst.profile.numIntervals(), 7u);
  EXPECT_EQ(inst.profile.horizon(), inst.deadline);
}

} // namespace
} // namespace cawo
