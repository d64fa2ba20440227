// The parallel solve core's determinism contract (see DESIGN.md,
// "Parallel solve core"): every parallel kernel must produce the same
// bytes as its serial twin for every thread count — the fan-outs reduce
// in deterministic order (candidate index, restart index), never in
// arrival order.
//
//   * all 16 CaWoSched variants over random DAGs, each run through
//     `runVariant` on one shared context with multi-start local search at
//     threads ∈ {1, 2, 8} and repeated runs — every schedule and search
//     trajectory bit-identical to the threads = 1 run;
//   * multi-start local search (`localSearchRestarts`) reproducing the
//     serial best-of-N merge exactly at every thread count;
//   * a wide-window climb ignoring `threads`: one climb's candidate scan
//     is serial, so any thread count gives the threads = 1 result for
//     both move strategies.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/asap.hpp"
#include "core/cawosched.hpp"
#include "core/local_search.hpp"
#include "core/solve_context.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace cawo {
namespace {

using testing::makeIndependentGc;
using testing::randomDag;
using testing::randomProfile;

struct RandomInstance {
  EnhancedGraph gc;
  PowerProfile profile;
  Time deadline = 0;
};

RandomInstance randomInstance(std::uint64_t seed) {
  Rng rng(seed);
  RandomInstance inst{randomDag(50, 3, 0.08, rng), PowerProfile{}, 0};
  inst.deadline = 2 * asapMakespan(inst.gc) + 5;
  inst.profile = randomProfile(inst.deadline, 12, 2, 14, rng);
  return inst;
}

// -------------------------------------------------------------------------
// All variants: 16 variants × threads {1, 2, 8} × repeated runs.
// -------------------------------------------------------------------------

TEST(ParallelDeterminism, AllVariantsBitIdenticalAcrossThreadCounts) {
  const std::vector<VariantSpec> variants = allVariants();
  ASSERT_EQ(variants.size(), 16u);
  CaWoParams serial;
  serial.lsRestarts = 3; // the thread count reaches the restart fan-out

  for (const std::uint64_t seed : {11u, 23u, 47u}) {
    const RandomInstance inst = randomInstance(seed);

    // Reference: threads = 1, one throwaway context per variant — exactly
    // the single-solver code path.
    std::vector<Schedule> reference;
    for (const VariantSpec& spec : variants)
      reference.push_back(
          runVariant(inst.gc, inst.profile, inst.deadline, spec, serial));
    std::vector<VariantRunStats> referenceStats(variants.size());
    {
      const SolveContext ctx(inst.gc, inst.profile, inst.deadline);
      for (std::size_t i = 0; i < variants.size(); ++i)
        (void)runVariant(ctx, variants[i], serial, &referenceStats[i]);
    }

    for (const unsigned threads : {1u, 2u, 8u}) {
      CaWoParams params = serial;
      params.threads = threads;
      const SolveContext ctx(inst.gc, inst.profile, inst.deadline);
      // The second pass runs on the already-filled context: nothing
      // about a previous run may leak into the next.
      for (const int pass : {0, 1}) {
        for (std::size_t i = 0; i < variants.size(); ++i) {
          VariantRunStats stats;
          const Schedule s = runVariant(ctx, variants[i], params, &stats);
          EXPECT_EQ(s.starts(), reference[i].starts())
              << "variant " << variants[i].name() << " diverged at threads="
              << threads << " (seed " << seed << ", pass " << pass << ")";
          EXPECT_EQ(stats.lsRan, variants[i].localSearch);
          if (!stats.lsRan) continue;
          // Wall times differ run to run; the search trajectory must not.
          const LocalSearchStats& want = referenceStats[i].ls;
          EXPECT_EQ(stats.ls.rounds, want.rounds);
          EXPECT_EQ(stats.ls.movesApplied, want.movesApplied);
          EXPECT_EQ(stats.ls.initialCost, want.initialCost);
          EXPECT_EQ(stats.ls.finalCost, want.finalCost);
          EXPECT_EQ(stats.ls.bestRestart, want.bestRestart);
        }
      }
    }
  }
}

// -------------------------------------------------------------------------
// Multi-start local search.
// -------------------------------------------------------------------------

TEST(ParallelDeterminism, RestartsReproduceSerialBestOfNExactly) {
  const RandomInstance inst = randomInstance(31);
  const Schedule base = runVariant(inst.gc, inst.profile, inst.deadline,
                                   VariantSpec{BaseScore::Pressure, true,
                                               true, false});

  LocalSearchOptions opts;
  opts.restarts = 5;

  // threads == 1 *is* the serial best-of-N: the fan-out loop runs inline
  // in restart order. Every other thread count must reproduce it.
  Schedule serial = base;
  opts.threads = 1;
  const LocalSearchStats serialStats =
      localSearchRestarts(inst.gc, inst.profile, inst.deadline, serial, opts);
  EXPECT_EQ(serialStats.restartsRun, 5u);

  for (const unsigned threads : {2u, 8u}) {
    Schedule parallel = base;
    opts.threads = threads;
    const LocalSearchStats stats = localSearchRestarts(
        inst.gc, inst.profile, inst.deadline, parallel, opts);
    EXPECT_EQ(parallel.starts(), serial.starts())
        << "restart merge diverged at threads=" << threads;
    EXPECT_EQ(stats.bestRestart, serialStats.bestRestart);
    EXPECT_EQ(stats.finalCost, serialStats.finalCost);
    EXPECT_EQ(stats.initialCost, serialStats.initialCost);
    EXPECT_EQ(stats.rounds, serialStats.rounds);
    EXPECT_EQ(stats.movesApplied, serialStats.movesApplied);
  }

  // The winner can never lose to the plain single climb — restart 0 *is*
  // the plain climb.
  Schedule plain = base;
  const LocalSearchStats plainStats =
      localSearch(inst.gc, inst.profile, inst.deadline, plain);
  EXPECT_LE(serialStats.finalCost, plainStats.finalCost);
  if (serialStats.bestRestart == 0) {
    EXPECT_EQ(serial.starts(), plain.starts());
  }
}

TEST(ParallelDeterminism, SingleRestartIsPlainLocalSearch) {
  const RandomInstance inst = randomInstance(7);
  const Schedule base = runVariant(inst.gc, inst.profile, inst.deadline,
                                   VariantSpec{BaseScore::Slack, false,
                                               false, false});
  Schedule viaRestarts = base;
  Schedule viaPlain = base;
  LocalSearchOptions opts;
  opts.restarts = 1;
  opts.threads = 8; // must be ignored: nothing to fan out
  const LocalSearchStats a = localSearchRestarts(
      inst.gc, inst.profile, inst.deadline, viaRestarts, opts);
  const LocalSearchStats b =
      localSearch(inst.gc, inst.profile, inst.deadline, viaPlain);
  EXPECT_EQ(viaRestarts.starts(), viaPlain.starts());
  EXPECT_EQ(a.finalCost, b.finalCost);
  EXPECT_EQ(a.restartsRun, 1u);
  EXPECT_EQ(a.bestRestart, 0u);
}

// -------------------------------------------------------------------------
// Wide-window climb: the candidate scan is serial at every `threads`
// value, so a plain climb must pick the very same moves at any thread
// count, for both strategies.
// -------------------------------------------------------------------------

TEST(ParallelDeterminism, WideWindowClimbIgnoresThreads) {
  Rng rng(97);
  // Independent tasks with huge slack: every probe window is thousands of
  // candidates wide.
  const EnhancedGraph gc = makeIndependentGc({25, 40, 15, 30, 20, 35},
                                             {1, 2, 1, 2, 1, 2},
                                             {5, 3, 6, 2, 4, 7});
  const Time deadline = 4000;
  const PowerProfile profile = randomProfile(deadline, 24, 3, 20, rng);
  Schedule base(gc.numNodes());
  for (TaskId v = 0; v < gc.numNodes(); ++v) base.setStart(v, 0);

  for (const MoveStrategy strategy :
       {MoveStrategy::FirstImprovement, MoveStrategy::BestImprovement}) {
    LocalSearchOptions opts;
    opts.strategy = strategy;
    opts.radius = deadline; // the whole horizon is in reach

    Schedule serial = base;
    opts.threads = 1;
    const LocalSearchStats serialStats =
        localSearch(gc, profile, deadline, serial, opts);

    for (const unsigned threads : {2u, 8u}) {
      Schedule parallel = base;
      opts.threads = threads;
      const LocalSearchStats stats =
          localSearch(gc, profile, deadline, parallel, opts);
      EXPECT_EQ(parallel.starts(), serial.starts())
          << "scan diverged at threads=" << threads << ", strategy="
          << (strategy == MoveStrategy::BestImprovement ? "best" : "first");
      EXPECT_EQ(stats.movesApplied, serialStats.movesApplied);
      EXPECT_EQ(stats.finalCost, serialStats.finalCost);
    }
  }
}

} // namespace
} // namespace cawo
