#include <gtest/gtest.h>

#include "util/require.hpp"

#include "core/carbon_cost.hpp"
#include "core/power_timeline.hpp"
#include "oracles/power_timeline_map.hpp"
#include "test_util.hpp"

namespace cawo {
namespace {

using oracle::MapPowerTimeline;
using testing::randomProfile;

TEST(PowerTimeline, InitialCostIsIdleFloor) {
  PowerProfile p;
  p.appendInterval(10, 3);
  p.appendInterval(10, 8);
  const PowerTimeline t(p, /*base=*/5);
  EXPECT_EQ(t.totalCost(), p.idleFloorCost(5));
  EXPECT_EQ(t.totalCost(), 2 * 10);
}

TEST(PowerTimeline, AddLoadRaisesCost) {
  const PowerProfile p = PowerProfile::uniform(10, 4);
  PowerTimeline t(p, 2);
  EXPECT_EQ(t.totalCost(), 0);
  t.addLoad(2, 6, 5); // draw 7 > 4 → overflow 3 for 4 units
  EXPECT_EQ(t.totalCost(), 12);
  t.removeLoad(2, 6, 5);
  EXPECT_EQ(t.totalCost(), 0);
}

TEST(PowerTimeline, OverlappingLoadsStack) {
  const PowerProfile p = PowerProfile::uniform(10, 10);
  PowerTimeline t(p, 0);
  t.addLoad(0, 10, 6);
  EXPECT_EQ(t.totalCost(), 0);
  t.addLoad(5, 10, 6); // 12 > 10 → 2 for 5 units
  EXPECT_EQ(t.totalCost(), 10);
  t.addLoad(7, 9, 6); // 18 > 10 → extra 6 × 2 units
  EXPECT_EQ(t.totalCost(), 10 + 12);
}

TEST(PowerTimeline, LoadAcrossIntervalBoundary) {
  PowerProfile p;
  p.appendInterval(5, 10);
  p.appendInterval(5, 1);
  PowerTimeline t(p, 1);
  EXPECT_EQ(t.totalCost(), 0);
  t.addLoad(3, 8, 4); // draw 5: 0 in the first interval, 4×3 in the second
  EXPECT_EQ(t.totalCost(), 12);
}

TEST(PowerTimeline, CostInRangeSlicesSegments) {
  const PowerProfile p = PowerProfile::uniform(10, 0);
  PowerTimeline t(p, 2); // constant overflow 2
  EXPECT_EQ(t.costInRange(0, 10), 20);
  EXPECT_EQ(t.costInRange(3, 7), 8);
  EXPECT_EQ(t.costInRange(7, 7), 0);
  t.addLoad(4, 6, 3);
  EXPECT_EQ(t.costInRange(4, 6), 10);
  EXPECT_EQ(t.costInRange(0, 4), 8);
}

TEST(PowerTimeline, MoveDeltaLeavesTimelineUnchanged) {
  const PowerProfile p = PowerProfile::uniform(20, 5);
  PowerTimeline t(p, 0);
  t.addLoad(0, 4, 7);
  const Cost before = t.totalCost();
  const Cost delta = t.moveDelta(0, 4, 10, 14, 7);
  EXPECT_EQ(t.totalCost(), before);
  EXPECT_EQ(delta, 0); // uniform budget → no gain anywhere
}

TEST(PowerTimeline, MoveDeltaSeesImprovement) {
  PowerProfile p;
  p.appendInterval(10, 0);  // dark
  p.appendInterval(10, 10); // green
  PowerTimeline t(p, 0);
  t.addLoad(0, 5, 4); // cost 20 in the dark interval
  EXPECT_EQ(t.totalCost(), 20);
  const Cost delta = t.moveDelta(0, 5, 12, 17, 4);
  EXPECT_EQ(delta, -20);
  EXPECT_EQ(t.totalCost(), 20); // unchanged by the probe
}

TEST(PowerTimeline, PeekMoveDeltaMatchesMutatingProbe) {
  // peekMoveDelta is the read-only twin the parallel candidate scan uses;
  // it must agree with moveDelta on every move shape — disjoint, partial
  // overlap, containment, zero-width old or new range — and, unlike the
  // mutating probe, must not grow the segment map.
  Rng rng(4242);
  const Time horizon = 60;
  for (int trial = 0; trial < 200; ++trial) {
    const PowerProfile p = randomProfile(horizon, 6, 0, 9, rng);
    PowerTimeline t(p, rng.uniformInt(0, 3));
    for (int l = 0; l < 4; ++l) {
      const Time a = rng.uniformInt(0, horizon - 1);
      t.addLoad(a, rng.uniformInt(a + 1, horizon), rng.uniformInt(1, 6));
    }
    const Time a = rng.uniformInt(0, horizon);
    const Time b = rng.uniformInt(a, horizon); // may be empty (a == b)
    const Time len = b - a;
    const Time a2 = rng.uniformInt(0, horizon - len);
    const Time b2 = a2 + len;
    const Power work = rng.uniformInt(0, 5);

    const auto segsBefore = t.numSegments();
    const Cost peeked = t.peekMoveDelta(a, b, a2, b2, work);
    EXPECT_EQ(t.numSegments(), segsBefore) << "peek split a segment";
    EXPECT_EQ(peeked, t.moveDelta(a, b, a2, b2, work))
        << "trial " << trial << ": move [" << a << "," << b << ") -> ["
        << a2 << "," << b2 << ") work " << work;
  }
}

TEST(PowerTimeline, RejectsOutOfHorizonLoads) {
  const PowerProfile p = PowerProfile::uniform(10, 5);
  PowerTimeline t(p, 0);
  EXPECT_THROW(t.addLoad(5, 12, 1), PreconditionError);
  EXPECT_THROW(t.addLoad(-1, 3, 1), PreconditionError);
}

TEST(PowerTimeline, ZeroWidthOrZeroPowerLoadsAreNoOps) {
  const PowerProfile p = PowerProfile::uniform(10, 5);
  PowerTimeline t(p, 0);
  const auto segsBefore = t.numSegments();
  t.addLoad(3, 3, 5);
  t.addLoad(2, 8, 0);
  EXPECT_EQ(t.totalCost(), 0);
  EXPECT_EQ(t.numSegments(), segsBefore);
}

// Property: the flat timeline and the retained std::map implementation
// agree bit-for-bit on every observable over a randomized operation trace
// (the map oracle pins the flat rewrite). Horizon-edge and zero-length
// spans are drawn deliberately often.
TEST(PowerTimeline, TraceEquivalenceVsMapOracle) {
  Rng rng(0xf1a7);
  for (int trial = 0; trial < 40; ++trial) {
    const Time horizon = rng.uniformInt(8, 80);
    const PowerProfile p = randomProfile(horizon, 5, 0, 10, rng);
    const Power base = rng.uniformInt(0, 4);
    PowerTimeline flat(p, base);
    MapPowerTimeline oracle(p, base);
    ASSERT_EQ(flat.totalCost(), oracle.totalCost());

    // Spans biased towards the horizon edges and the empty case.
    const auto randSpan = [&](Time& a, Time& b) {
      switch (rng.uniformInt(0, 5)) {
      case 0: a = 0; break;                          // starts at the edge
      default: a = rng.uniformInt(0, horizon); break;
      }
      switch (rng.uniformInt(0, 5)) {
      case 0: b = a; break;                          // zero-length
      case 1: b = horizon; break;                    // ends at the edge
      default: b = rng.uniformInt(a, horizon); break;
      }
    };

    std::vector<PowerTimeline::Load> live;
    for (int step = 0; step < 150; ++step) {
      Time a, b;
      randSpan(a, b);
      switch (rng.uniformInt(0, 5)) {
      case 0:
      case 1: { // add (work 0 exercises the no-op path)
        const Power w = rng.uniformInt(0, 6);
        flat.addLoad(a, b, w);
        oracle.addLoad(a, b, w);
        if (a < b && w > 0) live.push_back({a, b, w});
        break;
      }
      case 2: { // remove a previously added load
        if (live.empty()) break;
        const auto i =
            static_cast<std::size_t>(rng.uniformInt(0, live.size() - 1));
        const auto [la, lb, lw] = live[i];
        flat.removeLoad(la, lb, lw);
        oracle.removeLoad(la, lb, lw);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
      case 3: { // read-only probe
        Time a2, b2;
        randSpan(a2, b2);
        const Power w = rng.uniformInt(0, 5);
        EXPECT_EQ(flat.peekMoveDelta(a, b, a2, b2, w),
                  oracle.peekMoveDelta(a, b, a2, b2, w))
            << "peek [" << a << "," << b << ")->[" << a2 << "," << b2
            << ") w=" << w;
        break;
      }
      case 4: { // moveDelta (mutate-and-revert on the oracle, pure here)
        Time a2, b2;
        randSpan(a2, b2);
        const Power w = rng.uniformInt(0, 5);
        EXPECT_EQ(flat.moveDelta(a, b, a2, b2, w),
                  oracle.moveDelta(a, b, a2, b2, w));
        break;
      }
      case 5: { // sliced cost
        EXPECT_EQ(flat.costInRange(a, b), oracle.costInRange(a, b));
        break;
      }
      }
      ASSERT_EQ(flat.totalCost(), oracle.totalCost())
          << "trial " << trial << " step " << step;
    }

    // Drain every load: both must return exactly to the idle floor, and
    // coalescing must have folded the flat timeline back to at most the
    // profile's own change points — no residue from any probe or edit.
    for (const auto& [la, lb, lw] : live) {
      flat.removeLoad(la, lb, lw);
      oracle.removeLoad(la, lb, lw);
    }
    EXPECT_EQ(flat.totalCost(), oracle.totalCost());
    EXPECT_EQ(flat.totalCost(), p.idleFloorCost(base));
    EXPECT_LE(flat.numSegments(), p.intervals().size());
  }
}

// Property: the batched probe equals the scalar probe for every candidate —
// arbitrary order, arbitrary length, empty candidates, the identity
// candidate, and an empty source interval.
TEST(PowerTimeline, PeekMoveDeltasMatchesScalarProbe) {
  Rng rng(0xba7c4);
  PowerTimeline::PeekScratch scratch;
  for (int trial = 0; trial < 60; ++trial) {
    const Time horizon = rng.uniformInt(10, 100);
    const PowerProfile p = randomProfile(horizon, 6, 0, 9, rng);
    PowerTimeline t(p, rng.uniformInt(0, 3));
    for (int l = 0; l < 5; ++l) {
      const Time a = rng.uniformInt(0, horizon - 1);
      t.addLoad(a, rng.uniformInt(a + 1, horizon), rng.uniformInt(1, 6));
    }
    const bool emptySource = rng.uniformInt(0, 4) == 0;
    const Time a = rng.uniformInt(0, horizon - 1);
    const Time b = emptySource ? a : rng.uniformInt(a + 1, horizon);
    const Power work = rng.uniformInt(1, 5);

    std::vector<CandidateInterval> cands;
    const Time len = std::max<Time>(1, b - a);
    for (Time c = 0; c + len <= horizon; ++c)
      cands.push_back({c, c + len});          // the local-search sweep shape
    cands.push_back({a, b});                  // identity move
    for (int j = 0; j < 8; ++j) {             // arbitrary length and order
      const Time c = rng.uniformInt(0, horizon);
      cands.push_back({c, rng.uniformInt(c, horizon)});
    }
    cands.push_back({horizon, horizon});      // empty, at the edge

    std::vector<Cost> out(cands.size());
    t.peekMoveDeltas(a, b, work, cands, scratch, out);
    for (std::size_t i = 0; i < cands.size(); ++i)
      EXPECT_EQ(out[i],
                t.peekMoveDelta(a, b, cands[i].begin, cands[i].end, work))
          << "trial " << trial << " candidate [" << cands[i].begin << ","
          << cands[i].end << ") source [" << a << "," << b << ") w=" << work;
  }
}

// Regression for the probe-residue leak: a long churn of probes and applied
// moves must keep the segment count bounded by the live change points —
// profile boundaries plus two ends per live load — not grow with the number
// of operations (the std::map implementation grew monotonically here).
TEST(PowerTimeline, SegmentCountStaysBoundedUnderChurn) {
  Rng rng(0x5e95);
  const Time horizon = 200;
  const PowerProfile p = randomProfile(horizon, 8, 0, 12, rng);
  PowerTimeline t(p, 2);

  constexpr int kLoads = 10;
  struct LiveLoad {
    Time begin, end;
    Power work;
  };
  std::vector<LiveLoad> loads;
  for (int i = 0; i < kLoads; ++i) {
    const Time len = rng.uniformInt(1, 20);
    const Time a = rng.uniformInt(0, horizon - len);
    const Power w = rng.uniformInt(1, 6);
    t.addLoad(a, a + len, w);
    loads.push_back({a, a + len, w});
  }
  const std::size_t bound = p.intervals().size() + 2 * kLoads;

  for (int step = 0; step < 500; ++step) {
    auto& ld = loads[static_cast<std::size_t>(
        rng.uniformInt(0, loads.size() - 1))];
    const Time len = ld.end - ld.begin;
    const Time a2 = rng.uniformInt(0, horizon - len);
    // Probe first (read-only), then apply: the local-search pattern.
    (void)t.moveDelta(ld.begin, ld.end, a2, a2 + len, ld.work);
    t.applyMove(ld.begin, ld.end, a2, a2 + len, ld.work);
    ld.begin = a2;
    ld.end = a2 + len;
    ASSERT_LE(t.numSegments(), bound) << "step " << step;
  }
  for (const auto& ld : loads) t.removeLoad(ld.begin, ld.end, ld.work);
  EXPECT_EQ(t.totalCost(), p.idleFloorCost(2));
  EXPECT_LE(t.numSegments(), p.intervals().size());
}

// Property: a timeline loaded with a whole schedule reports exactly the
// sweep-line evaluator's cost.
class TimelineVsEvaluator : public ::testing::TestWithParam<int> {};

TEST_P(TimelineVsEvaluator, TotalsAgree) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  const int numTasks = static_cast<int>(rng.uniformInt(1, 10));
  std::vector<std::pair<ProcId, Time>> tasks;
  for (int i = 0; i < numTasks; ++i)
    tasks.push_back({static_cast<ProcId>(rng.uniformInt(0, 2)),
                     rng.uniformInt(1, 6)});
  std::vector<Power> idle{1, 2, 0}, work{3, 5, 2};
  const EnhancedGraph gc = testing::makeGc(tasks, {}, idle, work);
  const Time deadline = gc.criticalPathLength() + 15;
  const PowerProfile profile = randomProfile(deadline, 5, 0, 12, rng);
  const Schedule s = testing::randomSchedule(gc, deadline, rng);

  PowerTimeline t(profile, gc.totalIdlePower());
  for (TaskId u = 0; u < gc.numNodes(); ++u)
    t.addLoad(s.start(u), s.end(u, gc), gc.workPower(gc.procOf(u)));
  EXPECT_EQ(t.totalCost(), evaluateCost(gc, profile, s));
}

INSTANTIATE_TEST_SUITE_P(RandomSchedules, TimelineVsEvaluator,
                         ::testing::Range(0, 30));

} // namespace
} // namespace cawo
