// A solve is serial and deterministic (see DESIGN.md, "Where parallelism
// lives"): whatever ran before on a shared context, a run reproduces the
// run on a throwaway context byte for byte.
//
//   * all 16 CaWoSched variants over random DAGs, each run through
//     `runVariant` with multi-start local search on one shared context,
//     twice — every schedule and search trajectory bit-identical to the
//     same variant on its own throwaway context;
//   * multi-start local search repeating itself exactly, never losing to
//     the plain climb, which is its restart 0, and breaking ties towards
//     the lowest restart.

#include <gtest/gtest.h>

#include <vector>

#include "core/asap.hpp"
#include "core/cawosched.hpp"
#include "core/local_search.hpp"
#include "core/solve_context.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace cawo {
namespace {

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
// All variants: 16 variants × two passes over one shared context.
// -------------------------------------------------------------------------

TEST(ParallelDeterminism, AllVariantsBitIdenticalOnASharedContext) {
  const std::vector<VariantSpec> variants = allVariants();
  ASSERT_EQ(variants.size(), 16u);
  CaWoParams params;
  params.lsRestarts = 3;

  for (const std::uint64_t seed : {11u, 23u, 47u}) {
    const RandomInstance inst = randomInstance(seed);

    // Reference: one throwaway context per variant — exactly the
    // single-solver code path.
    std::vector<Schedule> reference;
    std::vector<VariantRunStats> referenceStats(variants.size());
    for (std::size_t i = 0; i < variants.size(); ++i) {
      const SolveContext own(inst.gc, inst.profile, inst.deadline);
      reference.push_back(
          runVariant(own, variants[i], params, &referenceStats[i]));
    }

    const SolveContext ctx(inst.gc, inst.profile, inst.deadline);
    // The second pass runs on the already-filled context: nothing about a
    // previous run may leak into the next.
    for (const int pass : {0, 1}) {
      for (std::size_t i = 0; i < variants.size(); ++i) {
        VariantRunStats stats;
        const Schedule s = runVariant(ctx, variants[i], params, &stats);
        EXPECT_EQ(s.starts(), reference[i].starts())
            << "variant " << variants[i].name() << " diverged (seed "
            << seed << ", pass " << pass << ")";
        EXPECT_EQ(stats.lsRan, variants[i].localSearch);
        if (!stats.lsRan) continue;
        // Wall times differ run to run; the search trajectory must not.
        const LocalSearchStats& want = referenceStats[i].ls;
        EXPECT_EQ(stats.ls.rounds, want.rounds);
        EXPECT_EQ(stats.ls.movesApplied, want.movesApplied);
        EXPECT_EQ(stats.ls.probes, want.probes);
        EXPECT_EQ(stats.ls.initialCost, want.initialCost);
        EXPECT_EQ(stats.ls.finalCost, want.finalCost);
        EXPECT_EQ(stats.ls.restartsRun, 3u);
        EXPECT_EQ(stats.ls.bestRestart, want.bestRestart);
      }
    }
  }
}

// -------------------------------------------------------------------------
// Multi-start local search.
// -------------------------------------------------------------------------

TEST(ParallelDeterminism, RestartsRepeatExactlyAndNeverLoseToThePlainClimb) {
  const RandomInstance inst = randomInstance(31);
  const Schedule base = runVariant(inst.gc, inst.profile, inst.deadline,
                                   VariantSpec{BaseScore::Pressure, true,
                                               true, false});

  LocalSearchOptions opts;
  opts.restarts = 5;
  Schedule first = base;
  const LocalSearchStats firstStats =
      localSearch(inst.gc, inst.profile, inst.deadline, first, opts);
  EXPECT_EQ(firstStats.restartsRun, 5u);

  Schedule again = base;
  const LocalSearchStats againStats =
      localSearch(inst.gc, inst.profile, inst.deadline, again, opts);
  EXPECT_EQ(again.starts(), first.starts());
  EXPECT_EQ(againStats.bestRestart, firstStats.bestRestart);
  EXPECT_EQ(againStats.finalCost, firstStats.finalCost);
  EXPECT_EQ(againStats.rounds, firstStats.rounds);
  EXPECT_EQ(againStats.movesApplied, firstStats.movesApplied);

  // The winner can never lose to the plain single climb — restart 0 *is*
  // the plain climb.
  Schedule plain = base;
  const LocalSearchStats plainStats =
      localSearch(inst.gc, inst.profile, inst.deadline, plain);
  EXPECT_EQ(plainStats.restartsRun, 1u);
  EXPECT_EQ(firstStats.initialCost, plainStats.initialCost);
  EXPECT_LE(firstStats.finalCost, plainStats.finalCost);
  if (firstStats.bestRestart == 0) {
    EXPECT_EQ(first.starts(), plain.starts());
  }
}

TEST(ParallelDeterminism, RestartTiesGoToTheLowestRestart) {
  // Green power covers every draw, so every climb ends at cost 0: all
  // restarts tie, and restart 0 — the unperturbed input — must win.
  RandomInstance inst = randomInstance(5);
  inst.profile = PowerProfile{};
  inst.profile.appendInterval(inst.deadline, 1000000);
  const Schedule input = scheduleAsap(inst.gc);
  Schedule s = input;
  LocalSearchOptions opts;
  opts.restarts = 4;
  const LocalSearchStats stats =
      localSearch(inst.gc, inst.profile, inst.deadline, s, opts);
  EXPECT_EQ(stats.finalCost, 0);
  EXPECT_EQ(stats.restartsRun, 4u);
  EXPECT_EQ(stats.bestRestart, 0u);
  EXPECT_EQ(s.starts(), input.starts());
}

} // namespace
} // namespace cawo
