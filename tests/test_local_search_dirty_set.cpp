// Dirty-set local search against the full-sweep oracle
// (tests/oracles/local_search_full_sweep.hpp): on seeded random
// multi-processor DAGs with link processors, the climb that skips clean
// tasks must apply the very same moves as the climb that re-probes every
// task in every round — same schedule, rounds, moves and costs — for every
// radius and for best-of-N restarts, while scoring no more candidates (and
// strictly fewer once a climb runs several rounds).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/asap.hpp"
#include "core/enhanced_graph.hpp"
#include "core/local_search.hpp"
#include "core/mapping.hpp"
#include "core/platform.hpp"
#include "core/task_graph.hpp"
#include "oracles/local_search_full_sweep.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace cawo {
namespace {

struct RandomInstance {
  EnhancedGraph gc;
  PowerProfile profile;
  Time deadline = 0;
  Schedule start;
};

/// A random workflow on the six paper processor types: tasks get work in
/// [0, 40] (work 0 gives zero-length nodes), forward edges (i, j), i < j,
/// carry data in [0, 6], and tasks are mapped uniformly in index order —
/// so cross-processor edges with data become comm tasks on link
/// processors. The climb starts from a random feasible schedule under a
/// deadline with slack, against a dense random profile around the
/// platform's power band.
RandomInstance randomInstance(std::uint64_t seed) {
  Rng rng(seed);
  const int n = static_cast<int>(rng.uniformInt(30, 60));
  TaskGraph graph;
  for (int i = 0; i < n; ++i)
    graph.addTask(std::to_string(i), rng.uniformInt(0, 40));
  for (TaskId i = 0; i < n; ++i)
    for (TaskId j = i + 1; j < n; ++j)
      if (rng.uniformReal(0.0, 1.0) < 0.08)
        graph.addEdge(i, j, rng.uniformInt(0, 6));
  const Platform platform = Platform::scaled(1);
  Mapping mapping(n, platform.numProcessors());
  for (TaskId i = 0; i < n; ++i)
    mapping.assign(i, static_cast<ProcId>(
                          rng.uniformInt(0, platform.numProcessors() - 1)));
  LinkPowerOptions links;
  links.seed = rng.next();

  RandomInstance inst{EnhancedGraph::build(graph, platform, mapping, links),
                      PowerProfile{}, 0, Schedule{}};
  inst.deadline = asapMakespan(inst.gc) * 2 + rng.uniformInt(5, 40);
  Power sumWork = 0;
  for (ProcId p = 0; p < inst.gc.numProcs(); ++p)
    sumWork += inst.gc.workPower(p);
  const Power base = inst.gc.totalIdlePower();
  // About one budget change every two time units, so a move that frees or
  // fills a single unit at the edge of another task's probe range changes
  // that task's best candidate — the marking rule's boundaries matter.
  const int intervals =
      static_cast<int>(std::max<Time>(16, inst.deadline / 2));
  inst.profile = testing::randomProfile(inst.deadline, intervals, base,
                                        base + sumWork, rng);
  inst.start = testing::randomSchedule(inst.gc, inst.deadline, rng);
  return inst;
}

void expectSameClimb(const Schedule& got, const LocalSearchStats& gotStats,
                     const Schedule& want, const LocalSearchStats& wantStats,
                     const std::string& label) {
  EXPECT_EQ(got.starts(), want.starts()) << label;
  EXPECT_EQ(gotStats.rounds, wantStats.rounds) << label;
  EXPECT_EQ(gotStats.movesApplied, wantStats.movesApplied) << label;
  EXPECT_EQ(gotStats.initialCost, wantStats.initialCost) << label;
  EXPECT_EQ(gotStats.finalCost, wantStats.finalCost) << label;
  EXPECT_LE(gotStats.probes, wantStats.probes) << label;
}

TEST(DirtySetLocalSearch, MatchesFullSweepOracle) {
  std::size_t multiRoundClimbs = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const RandomInstance inst = randomInstance(seed);
    ASSERT_GT(inst.gc.numLinks(), 0) << "seed " << seed;
    for (const Time radius : {0, 1, 3, 10, 40}) {
      LocalSearchOptions opts;
      opts.radius = radius;
      const std::string label =
          "seed=" + std::to_string(seed) + " radius=" + std::to_string(radius);

      Schedule dirtySet = inst.start;
      const LocalSearchStats got =
          localSearch(inst.gc, inst.profile, inst.deadline, dirtySet, opts);
      Schedule fullSweep = inst.start;
      const LocalSearchStats want = oracle::localSearchFullSweep(
          inst.gc, inst.profile, inst.deadline, fullSweep, opts);
      expectSameClimb(dirtySet, got, fullSweep, want, label);
      if (want.rounds > 1) {
        ++multiRoundClimbs;
        EXPECT_LT(got.probes, want.probes) << label;
      }
    }
  }
  // The grid must exercise the skipping, not just single-round climbs.
  EXPECT_GT(multiRoundClimbs, 50u);
}

TEST(DirtySetLocalSearch, RestartsMatchFullSweepOracle) {
  const RandomInstance inst = randomInstance(11);
  LocalSearchOptions opts;
  opts.restarts = 4;
  Schedule oracleSchedule = inst.start;
  const LocalSearchStats want = oracle::localSearchFullSweep(
      inst.gc, inst.profile, inst.deadline, oracleSchedule, opts);
  EXPECT_GT(want.movesApplied, 0u);

  Schedule s = inst.start;
  const LocalSearchStats got =
      localSearch(inst.gc, inst.profile, inst.deadline, s, opts);
  expectSameClimb(s, got, oracleSchedule, want, "restarts=4");
  EXPECT_EQ(got.restartsRun, 4u);
  EXPECT_EQ(got.bestRestart, want.bestRestart);
}

} // namespace
} // namespace cawo
