// The incremental scheduling engine: WindowState worklist propagation
// against the recomputeWindows oracle (bit-for-bit, including
// infeasible-slack detection), greedy parity against the paper-literal
// full-sweep formulation (which also pins that skipping the dead final
// window update cannot change the schedule), and SolveContext memoization
// parity for every artifact it caches.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/asap.hpp"
#include "core/budget_tree.hpp"
#include "core/cawosched.hpp"
#include "core/est_lst.hpp"
#include "core/greedy.hpp"
#include "core/interval_refinement.hpp"
#include "core/solve_context.hpp"
#include "sim/instance.hpp"
#include "sim/runner.hpp"
#include "solver/registry.hpp"
#include "oracles/est_lst_full_sweep.hpp"
#include "test_util.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace cawo {
namespace {

using testing::makeChainGc;
using testing::randomDag;
using testing::randomProfile;

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// The paper-literal greedy: a verbatim copy of the pre-WindowState
/// implementation, full `recomputeWindows` sweep after *every* placement —
/// including the dead one after the last task. `scheduleGreedy` must match
/// it bit for bit, which simultaneously proves (a) the incremental window
/// maintenance reaches the same fixpoints and (b) skipping the final
/// update cannot change the schedule.
Schedule oracleGreedy(const EnhancedGraph& gc, const PowerProfile& profile,
                      Time deadline, const GreedyOptions& opts) {
  const auto n = static_cast<std::size_t>(gc.numNodes());
  std::vector<Time> est = computeEst(gc);
  std::vector<Time> lst = computeLst(gc, deadline);

  std::vector<Interval> working;
  if (opts.refined) {
    working = refineIntervals(gc, profile, opts.blockSize);
  } else {
    working.assign(profile.intervals().begin(), profile.intervals().end());
  }
  std::vector<Time> begins;
  std::vector<Power> budgets;
  for (const Interval& iv : working) {
    begins.push_back(iv.begin);
    budgets.push_back(iv.green);
  }
  BudgetTree tree(std::move(begins), std::move(budgets), profile.horizon());

  const std::vector<TaskId> order =
      scoreOrder(gc, est, lst, ScoreOptions{opts.base, opts.weighted});

  Schedule schedule(gc.numNodes());
  std::vector<bool> placed(n, false);
  for (const TaskId v : order) {
    const auto iv = static_cast<std::size_t>(v);
    const auto best = tree.maxInRange(est[iv], lst[iv]);
    const Time start = best.found ? best.begin : est[iv];
    schedule.setStart(v, start);
    placed[iv] = true;
    const ProcId p = gc.procOf(v);
    tree.consume(start, std::min(start + gc.len(v), profile.horizon()),
                 gc.idlePower(p) + gc.workPower(p));
    oracle::recomputeWindows(gc, deadline, schedule, placed, est, lst);
  }
  return schedule;
}

/// Oracle windows for the placement set of `ws`, via the full sweep.
void oracleWindows(const WindowState& ws, const Schedule& partial,
                   std::vector<Time>& est, std::vector<Time>& lst) {
  const EnhancedGraph& gc = ws.graph();
  const auto n = static_cast<std::size_t>(gc.numNodes());
  std::vector<bool> placed(n, false);
  for (TaskId v = 0; v < gc.numNodes(); ++v)
    placed[static_cast<std::size_t>(v)] = ws.placed(v);
  est = computeEst(gc);
  lst = computeLst(gc, ws.deadline());
  oracle::recomputeWindows(gc, ws.deadline(), partial, placed, est, lst);
}

// ---------------------------------------------------------------------------
// WindowState vs the recomputeWindows oracle
// ---------------------------------------------------------------------------

TEST(WindowState, MatchesOracleAfterEveryPlacementOnRandomDags) {
  Rng rng(20260729);
  for (int round = 0; round < 40; ++round) {
    const int n = static_cast<int>(rng.uniformInt(2, 40));
    const int procs = static_cast<int>(rng.uniformInt(1, 4));
    const EnhancedGraph gc =
        randomDag(n, procs, rng.uniformReal(0.05, 0.4), rng);
    const Time deadline =
        gc.criticalPathLength() + rng.uniformInt(0, 25);

    WindowState ws(gc, deadline);
    ASSERT_EQ(ws.estAll(), computeEst(gc));
    ASSERT_EQ(ws.lstAll(), computeLst(gc, deadline));
    ASSERT_TRUE(ws.feasible());

    // Place every task in random order at a random start inside its
    // current window; after each placement the incremental windows must
    // equal the full-sweep oracle bit for bit.
    Schedule partial(gc.numNodes());
    std::vector<TaskId> order(static_cast<std::size_t>(gc.numNodes()));
    for (TaskId v = 0; v < gc.numNodes(); ++v)
      order[static_cast<std::size_t>(v)] = v;
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1],
                order[static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<std::int64_t>(i) - 1))]);

    for (const TaskId v : order) {
      const Time start = ws.est(v) >= ws.lst(v)
                             ? ws.est(v)
                             : rng.uniformInt(ws.est(v), ws.lst(v));
      partial.setStart(v, start);
      ws.place(v, start);

      std::vector<Time> est, lst;
      oracleWindows(ws, partial, est, lst);
      ASSERT_EQ(ws.estAll(), est) << "EST diverged (round " << round << ")";
      ASSERT_EQ(ws.lstAll(), lst) << "LST diverged (round " << round << ")";
      std::size_t negative = 0;
      for (std::size_t k = 0; k < est.size(); ++k)
        if (est[k] > lst[k]) ++negative;
      ASSERT_EQ(ws.negativeSlackCount(), negative);
      ASSERT_TRUE(ws.feasible())
          << "placing inside the window must keep the instance feasible";
    }
    EXPECT_EQ(ws.numPlaced(), static_cast<std::size_t>(gc.numNodes()));
  }
}

TEST(WindowState, DetectsInfeasibleSlackExactlyLikeTheOracle) {
  Rng rng(77);
  bool sawInfeasible = false;
  for (int round = 0; round < 25; ++round) {
    const int n = static_cast<int>(rng.uniformInt(3, 25));
    const EnhancedGraph gc = randomDag(n, 2, 0.3, rng);
    const Time deadline = gc.criticalPathLength() + rng.uniformInt(0, 10);

    WindowState ws(gc, deadline);
    Schedule partial(gc.numNodes());
    // Deliberately place tasks far beyond their windows: the incremental
    // state must track the resulting negative slacks exactly as a full
    // resweep would (the oracle pins EST = LST = start regardless).
    for (TaskId v = 0; v < gc.numNodes(); ++v) {
      const Time start = ws.lst(v) + rng.uniformInt(1, 20);
      partial.setStart(v, start);
      ws.place(v, start);

      std::vector<Time> est, lst;
      oracleWindows(ws, partial, est, lst);
      ASSERT_EQ(ws.estAll(), est);
      ASSERT_EQ(ws.lstAll(), lst);
      std::size_t negative = 0;
      for (std::size_t k = 0; k < est.size(); ++k)
        if (est[k] > lst[k]) ++negative;
      ASSERT_EQ(ws.negativeSlackCount(), negative);
      sawInfeasible = sawInfeasible || !ws.feasible();
    }
    // Note: once *every* node is pinned, est == lst == start everywhere, so
    // the slack count legitimately returns to zero — infeasibility lives on
    // the still-unplaced nodes squeezed between pins, exactly as with the
    // oracle. The mid-run states above are where it must show.
  }
  EXPECT_TRUE(sawInfeasible)
      << "late pins never produced a squeezed unplaced node — the "
         "generator or the detection is broken";
}

TEST(WindowState, InfeasibleDeadlineIsVisibleAtConstruction) {
  const EnhancedGraph gc = makeChainGc({5, 5});
  const WindowState ws(gc, 8); // < critical path 10
  EXPECT_FALSE(ws.feasible());
  EXPECT_GT(ws.negativeSlackCount(), 0u);
}

TEST(WindowState, RejectsDoublePlacement) {
  const EnhancedGraph gc = makeChainGc({3, 4});
  WindowState ws(gc, 20);
  ws.place(0, 0);
  EXPECT_THROW(ws.place(0, 1), PreconditionError);
}

// ---------------------------------------------------------------------------
// Greedy parity: incremental engine vs the paper-literal full sweep
// ---------------------------------------------------------------------------

TEST(GreedyParity, AllVariantsMatchTheFullSweepOracleOnRealInstances) {
  for (const std::uint64_t seed : {1ULL, 7ULL}) {
    InstanceSpec spec;
    spec.family = seed == 1 ? WorkflowFamily::Atacseq : WorkflowFamily::Eager;
    spec.targetTasks = 30;
    spec.nodesPerType = 1;
    spec.scenario = seed == 1 ? "S1" : "S3";
    spec.deadlineFactor = 1.5;
    spec.numIntervals = 8;
    spec.seed = seed;
    const Instance inst = buildInstance(spec);

    for (const VariantSpec& variant : allVariants()) {
      if (variant.localSearch) continue;
      GreedyOptions opts;
      opts.base = variant.base;
      opts.weighted = variant.weighted;
      opts.refined = variant.refined;
      const Schedule incremental =
          scheduleGreedy(inst.gc, inst.profile, inst.deadline, opts);
      const Schedule oracle =
          oracleGreedy(inst.gc, inst.profile, inst.deadline, opts);
      for (TaskId v = 0; v < inst.gc.numNodes(); ++v)
        ASSERT_EQ(incremental.start(v), oracle.start(v))
            << variant.name() << " diverged at node " << v << " (seed "
            << seed << ")";
    }
  }
}

TEST(GreedyParity, RandomProfilesAndDagsMatchTheOracle) {
  Rng rng(424242);
  for (int round = 0; round < 20; ++round) {
    const int n = static_cast<int>(rng.uniformInt(3, 30));
    const EnhancedGraph gc = randomDag(n, 3, 0.25, rng);
    const Time deadline = gc.criticalPathLength() + rng.uniformInt(1, 30);
    const PowerProfile profile =
        randomProfile(deadline, static_cast<int>(rng.uniformInt(2, 8)), 0,
                      20, rng);
    GreedyOptions opts;
    opts.base = rng.uniformInt(0, 1) ? BaseScore::Slack : BaseScore::Pressure;
    opts.weighted = rng.uniformInt(0, 1) != 0;
    opts.refined = rng.uniformInt(0, 1) != 0;
    const Schedule incremental = scheduleGreedy(gc, profile, deadline, opts);
    const Schedule oracle = oracleGreedy(gc, profile, deadline, opts);
    for (TaskId v = 0; v < gc.numNodes(); ++v)
      ASSERT_EQ(incremental.start(v), oracle.start(v))
          << "round " << round << ", node " << v;
  }
}

// ---------------------------------------------------------------------------
// SolveContext memoization
// ---------------------------------------------------------------------------

Instance smallInstance() {
  InstanceSpec spec;
  spec.family = WorkflowFamily::Methylseq;
  spec.targetTasks = 30;
  spec.nodesPerType = 1;
  spec.scenario = "S2";
  spec.deadlineFactor = 2.0;
  spec.numIntervals = 8;
  spec.seed = 11;
  return buildInstance(spec);
}

TEST(SolveContext, MemoizedArtifactsEqualDirectComputation) {
  const Instance inst = smallInstance();
  const SolveContext ctx(inst.gc, inst.profile, inst.deadline);

  EXPECT_EQ(ctx.initialEst(), computeEst(inst.gc));
  EXPECT_EQ(ctx.initialLst(), computeLst(inst.gc, inst.deadline));
  EXPECT_EQ(ctx.asapMakespan(), asapMakespan(inst.gc));
  EXPECT_EQ(ctx.asapMakespan(), inst.asapMakespanD);
  EXPECT_EQ(ctx.totalIdlePower(), inst.gc.totalIdlePower());

  Power sumWork = 0;
  for (ProcId p = 0; p < inst.gc.numProcs(); ++p)
    sumWork += inst.gc.workPower(p);
  EXPECT_EQ(ctx.sumWorkPower(), sumWork);

  for (const int k : {2, 3}) {
    const std::vector<Interval> direct =
        refineIntervals(inst.gc, inst.profile, k);
    const std::vector<Interval>& memo = ctx.refinedIntervals(k);
    ASSERT_EQ(memo.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
      EXPECT_EQ(memo[i].begin, direct[i].begin);
      EXPECT_EQ(memo[i].end, direct[i].end);
      EXPECT_EQ(memo[i].green, direct[i].green);
    }
  }

  for (const BaseScore base : {BaseScore::Slack, BaseScore::Pressure})
    for (const bool weighted : {false, true}) {
      const ScoreOptions opts{base, weighted};
      EXPECT_EQ(ctx.scoreOrder(opts),
                scoreOrder(inst.gc, ctx.initialEst(), ctx.initialLst(),
                           opts));
    }
}

TEST(SolveContext, RepeatedCallsReturnTheSameObject) {
  const Instance inst = smallInstance();
  const SolveContext ctx(inst.gc, inst.profile, inst.deadline);
  EXPECT_EQ(&ctx.initialEst(), &ctx.initialEst());
  EXPECT_EQ(&ctx.refinedIntervals(3), &ctx.refinedIntervals(3));
  EXPECT_EQ(&ctx.scoreOrder({BaseScore::Pressure, true}),
            &ctx.scoreOrder({BaseScore::Pressure, true}));
  EXPECT_NE(&ctx.refinedIntervals(3), &ctx.refinedIntervals(4));
}

TEST(SolveContext, WindowStateIsSeededFromTheMemoizedWindows) {
  const Instance inst = smallInstance();
  const SolveContext ctx(inst.gc, inst.profile, inst.deadline);
  const WindowState ws = ctx.windowState();
  EXPECT_EQ(ws.estAll(), ctx.initialEst());
  EXPECT_EQ(ws.lstAll(), ctx.initialLst());
  EXPECT_TRUE(ws.feasible());
  EXPECT_EQ(ws.numPlaced(), 0u);
}

TEST(SolveContext, SharedContextRunsMatchContextFreeRuns) {
  const Instance inst = smallInstance();
  const SolveContext ctx(inst.gc, inst.profile, inst.deadline);
  for (const VariantSpec& variant : allVariants()) {
    VariantRunStats stats;
    const Schedule shared = runVariant(ctx, variant, {}, &stats);
    const Schedule solo =
        runVariant(inst.gc, inst.profile, inst.deadline, variant, {});
    for (TaskId v = 0; v < inst.gc.numNodes(); ++v)
      ASSERT_EQ(shared.start(v), solo.start(v))
          << variant.name() << " diverged at node " << v;
    EXPECT_EQ(stats.lsRan, variant.localSearch);
    if (stats.lsRan) {
      EXPECT_GE(stats.ls.rounds, 1u);
      EXPECT_LE(stats.ls.finalCost, stats.ls.initialCost);
    }
  }
}

TEST(SolveContext, MismatchedRequestContextIsRejected) {
  const Instance inst = smallInstance();
  const SolveContext ctx(inst.gc, inst.profile, inst.deadline);

  SolveRequest request;
  request.gc = &inst.gc;
  request.profile = &inst.profile;
  request.deadline = inst.deadline + 1; // context says inst.deadline
  request.context = &ctx;

  const SolverRegistry& registry = SolverRegistry::global();
  EXPECT_THROW((void)registry.create("press")->solve(request),
               PreconditionError);
}

} // namespace
} // namespace cawo
