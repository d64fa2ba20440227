#include <gtest/gtest.h>

#include "core/asap.hpp"
#include "core/est_lst.hpp"
#include "oracles/est_lst_full_sweep.hpp"
#include "test_util.hpp"

namespace cawo {
namespace {

using testing::makeChainGc;
using testing::makeGc;

TEST(EstLst, ChainEstIsPrefixSum) {
  const EnhancedGraph gc = makeChainGc({3, 4, 5});
  const auto est = computeEst(gc);
  EXPECT_EQ(est[0], 0);
  EXPECT_EQ(est[1], 3);
  EXPECT_EQ(est[2], 7);
}

TEST(EstLst, ChainLstCountsBackFromDeadline) {
  const EnhancedGraph gc = makeChainGc({3, 4, 5});
  const auto lst = computeLst(gc, 20);
  EXPECT_EQ(lst[2], 15);
  EXPECT_EQ(lst[1], 11);
  EXPECT_EQ(lst[0], 8);
}

TEST(EstLst, SlackIsDeadlineMinusCriticalPathOnChains) {
  const EnhancedGraph gc = makeChainGc({3, 4, 5});
  const auto est = computeEst(gc);
  const auto lst = computeLst(gc, 20);
  for (TaskId v = 0; v < gc.numNodes(); ++v)
    EXPECT_EQ(lst[static_cast<std::size_t>(v)] -
                  est[static_cast<std::size_t>(v)],
              20 - 12);
}

TEST(EstLst, DiamondTakesTheLongerBranch) {
  // 0 → 1 → 3, 0 → 2 → 3 on separate processors; branch 1 longer.
  const EnhancedGraph gc =
      makeGc({{0, 2}, {1, 10}, {2, 4}, {0, 3}},
             {{0, 1}, {0, 2}, {1, 3}, {2, 3}}, {1, 1, 1}, {1, 1, 1});
  const auto est = computeEst(gc);
  EXPECT_EQ(est[1], 2);
  EXPECT_EQ(est[2], 2);
  EXPECT_EQ(est[3], 12); // via the long branch
  const auto lst = computeLst(gc, 15);
  EXPECT_EQ(lst[3], 12);
  EXPECT_EQ(lst[1], 2);  // on the critical path: zero slack
  EXPECT_EQ(lst[2], 8);
}

TEST(EstLst, NegativeSlackSignalsInfeasibleDeadline) {
  const EnhancedGraph gc = makeChainGc({5, 5});
  const auto est = computeEst(gc);
  const auto lst = computeLst(gc, 8); // < critical path 10
  EXPECT_LT(lst[0], est[0]);
}

TEST(EstLst, RecomputeWindowsPinsPlacedTasks) {
  const EnhancedGraph gc = makeChainGc({3, 4, 5});
  std::vector<Time> est = computeEst(gc);
  std::vector<Time> lst = computeLst(gc, 30);
  Schedule partial(gc.numNodes());
  std::vector<bool> placed(3, false);
  partial.setStart(1, 10);
  placed[1] = true;
  oracle::recomputeWindows(gc, 30, partial, placed, est, lst);
  EXPECT_EQ(est[1], 10);
  EXPECT_EQ(lst[1], 10);
  EXPECT_EQ(est[2], 14); // after task 1 completes
  EXPECT_EQ(lst[0], 7);  // must finish before task 1 starts
  EXPECT_EQ(est[0], 0);
  EXPECT_EQ(lst[2], 25);
}

TEST(WindowState, PinsAndPropagatesLikeRecomputeWindows) {
  // Mirror of RecomputeWindowsPinsPlacedTasks through the incremental API.
  const EnhancedGraph gc = makeChainGc({3, 4, 5});
  WindowState ws(gc, 30);
  EXPECT_EQ(ws.estAll(), computeEst(gc));
  EXPECT_EQ(ws.lstAll(), computeLst(gc, 30));

  ws.place(1, 10);
  EXPECT_TRUE(ws.placed(1));
  EXPECT_EQ(ws.est(1), 10);
  EXPECT_EQ(ws.lst(1), 10);
  EXPECT_EQ(ws.est(2), 14); // after task 1 completes
  EXPECT_EQ(ws.lst(0), 7);  // must finish before task 1 starts
  EXPECT_EQ(ws.est(0), 0);
  EXPECT_EQ(ws.lst(2), 25);
  EXPECT_EQ(ws.numPlaced(), 1u);
  EXPECT_TRUE(ws.feasible());
}

TEST(WindowState, PlacedTasksAbsorbPropagation) {
  // Chain 0 → 1 → 2; placing 0 late must not move the already pinned 1,
  // and 2 is shielded behind it — exactly as the oracle's pinned sweep.
  const EnhancedGraph gc = makeChainGc({3, 4, 5});
  WindowState ws(gc, 40);
  ws.place(1, 10);
  ws.place(0, 7);
  EXPECT_EQ(ws.est(1), 10);
  EXPECT_EQ(ws.lst(1), 10);
  EXPECT_EQ(ws.est(2), 14);
  EXPECT_TRUE(ws.feasible());
}

TEST(WindowState, LatePinDrivesSlackNegative) {
  const EnhancedGraph gc = makeChainGc({3, 4, 5});
  WindowState ws(gc, 12); // exactly the critical path: zero slack
  EXPECT_TRUE(ws.feasible());
  ws.place(0, 2); // 2 units past LST(0) = 0
  EXPECT_FALSE(ws.feasible());
  EXPECT_EQ(ws.negativeSlackCount(), 2u); // tasks 1 and 2 are squeezed
}

TEST(Asap, StartsEveryTaskAtEst) {
  const EnhancedGraph gc = makeChainGc({3, 4, 5});
  const Schedule s = scheduleAsap(gc);
  const auto est = computeEst(gc);
  for (TaskId v = 0; v < gc.numNodes(); ++v)
    EXPECT_EQ(s.start(v), est[static_cast<std::size_t>(v)]);
}

TEST(Asap, MakespanEqualsCriticalPath) {
  const EnhancedGraph gc =
      makeGc({{0, 2}, {1, 10}, {2, 4}, {0, 3}},
             {{0, 1}, {0, 2}, {1, 3}, {2, 3}}, {1, 1, 1}, {1, 1, 1});
  EXPECT_EQ(asapMakespan(gc), gc.criticalPathLength());
  EXPECT_EQ(asapMakespan(gc), 15);
}

TEST(Asap, ScheduleIsValidAtItsOwnMakespan) {
  const EnhancedGraph gc =
      makeGc({{0, 2}, {1, 10}, {2, 4}, {0, 3}},
             {{0, 1}, {0, 2}, {1, 3}, {2, 3}}, {1, 1, 1}, {1, 1, 1});
  const Schedule s = scheduleAsap(gc);
  const auto result = validateSchedule(gc, s, asapMakespan(gc));
  EXPECT_TRUE(result.ok) << result.message;
}

} // namespace
} // namespace cawo
