#include <gtest/gtest.h>

#include "util/require.hpp"

#include "core/asap.hpp"
#include "core/carbon_cost.hpp"
#include "core/greedy.hpp"
#include "core/local_search.hpp"
#include "profile/scenario.hpp"
#include "test_util.hpp"

namespace cawo {
namespace {

using testing::makeChainGc;
using testing::makeGc;

TEST(LocalSearch, MovesTaskIntoGreenWindow) {
  // Task sits in a dark zone; a green window lies `radius` units away.
  const EnhancedGraph gc = makeChainGc({3}, 0, 5);
  PowerProfile p;
  p.appendInterval(5, 0);
  p.appendInterval(10, 9);
  Schedule s(1);
  s.setStart(0, 0); // cost 15 in the dark interval
  LocalSearchOptions opts;
  opts.radius = 10;
  const auto stats = localSearch(gc, p, 15, s, opts);
  EXPECT_GE(s.start(0), 5);
  EXPECT_EQ(stats.finalCost, 0);
  EXPECT_GT(stats.movesApplied, 0u);
}

TEST(LocalSearch, NeverWorsensTheCost) {
  Rng rng(4242);
  const EnhancedGraph gc = makeGc(
      {{0, 4}, {1, 3}, {0, 2}, {1, 6}, {2, 5}},
      {{0, 2}, {1, 3}, {0, 4}}, {1, 2, 3}, {5, 7, 4});
  const Time deadline = asapMakespan(gc) + 12;
  const PowerProfile profile =
      testing::randomProfile(deadline, 5, 0, 20, rng);
  for (int trial = 0; trial < 10; ++trial) {
    Schedule s = testing::randomSchedule(gc, deadline, rng);
    const Cost before = evaluateCost(gc, profile, s);
    const auto stats = localSearch(gc, profile, deadline, s);
    EXPECT_LE(stats.finalCost, before);
    EXPECT_EQ(stats.initialCost, before);
    EXPECT_EQ(stats.finalCost, evaluateCost(gc, profile, s));
  }
}

TEST(LocalSearch, FinalScheduleStaysFeasible) {
  Rng rng(777);
  const EnhancedGraph gc = makeGc(
      {{0, 4}, {1, 3}, {0, 2}, {1, 6}},
      {{0, 2}, {1, 3}}, {1, 2}, {5, 7});
  const Time deadline = asapMakespan(gc) + 8;
  const PowerProfile profile = testing::randomProfile(deadline, 4, 0, 15, rng);
  Schedule s = testing::randomSchedule(gc, deadline, rng);
  localSearch(gc, profile, deadline, s);
  const auto r = validateSchedule(gc, s, deadline);
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(LocalSearch, RadiusZeroAppliesNoMoves) {
  const EnhancedGraph gc = makeChainGc({3}, 0, 5);
  PowerProfile p;
  p.appendInterval(5, 0);
  p.appendInterval(10, 9);
  Schedule s(1);
  s.setStart(0, 0);
  LocalSearchOptions opts;
  opts.radius = 0;
  const auto stats = localSearch(gc, p, 15, s, opts);
  EXPECT_EQ(stats.movesApplied, 0u);
  EXPECT_EQ(s.start(0), 0);
}

TEST(LocalSearch, ClimbsUntilARoundAppliesNoMove) {
  // Strictly increasing per-unit budgets: every one-unit right shift is a
  // strict improvement, so a µ=1 climb needs many rounds to reach the end.
  const EnhancedGraph gc = makeChainGc({2}, 0, 25);
  PowerProfile p;
  for (Power g = 0; g < 20; ++g) p.appendInterval(1, g);
  Schedule s(1);
  s.setStart(0, 0);
  LocalSearchOptions opts;
  opts.radius = 1;
  const auto stats = localSearch(gc, p, 20, s, opts);
  EXPECT_EQ(stats.movesApplied, 18u); // one unit per round
  EXPECT_EQ(stats.rounds, 19u);       // plus the final gainless round
  EXPECT_EQ(s.start(0), 18); // climbed all the way to the greenest window
}

TEST(LocalSearch, RespectsPrecedenceWhenMoving) {
  // Chain A → B with zero slack between them; B sits in the green zone and
  // must not move left over A.
  const EnhancedGraph gc = makeChainGc({5, 5}, 0, 5);
  PowerProfile p;
  p.appendInterval(10, 2);
  p.appendInterval(10, 9);
  Schedule s(2);
  s.setStart(0, 0);
  s.setStart(1, 5);
  localSearch(gc, p, 20, s);
  const auto r = validateSchedule(gc, s, 20);
  EXPECT_TRUE(r.ok) << r.message;
  EXPECT_GE(s.start(1), s.end(0, gc));
}

TEST(LocalSearch, RequiresAFeasibleInput) {
  const EnhancedGraph gc = makeChainGc({5, 5});
  const PowerProfile p = PowerProfile::uniform(20, 1);
  Schedule s(2);
  s.setStart(0, 0);
  s.setStart(1, 3); // precedence violation
  EXPECT_THROW(localSearch(gc, p, 20, s), PreconditionError);
}

TEST(LocalSearch, ImprovesGreedyOnStaircaseProfile) {
  // A profile where greedy interval-begin placement is suboptimal and
  // small shifts help: assert LS strictly improves a crafted schedule.
  const EnhancedGraph gc = makeGc({{0, 4}, {1, 4}}, {}, {0, 0}, {6, 6});
  PowerProfile p;
  p.appendInterval(3, 12);
  p.appendInterval(3, 1);
  p.appendInterval(3, 12);
  p.appendInterval(11, 1);
  Schedule s(2);
  s.setStart(0, 1); // straddles the dark middle
  s.setStart(1, 5);
  const Cost before = evaluateCost(gc, p, s);
  const auto stats = localSearch(gc, p, 20, s);
  EXPECT_LT(stats.finalCost, before);
}

} // namespace
} // namespace cawo
