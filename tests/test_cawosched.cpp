#include <gtest/gtest.h>

#include "util/require.hpp"

#include <set>

#include "core/asap.hpp"
#include "core/carbon_cost.hpp"
#include "core/cawosched.hpp"
#include "profile/scenario.hpp"
#include "test_util.hpp"

namespace cawo {
namespace {

TEST(VariantSpec, NamesFollowThePaperConvention) {
  EXPECT_EQ((VariantSpec{BaseScore::Slack, false, false, false}).name(),
            "slack");
  EXPECT_EQ((VariantSpec{BaseScore::Slack, true, false, false}).name(),
            "slackW");
  EXPECT_EQ((VariantSpec{BaseScore::Slack, false, true, false}).name(),
            "slackR");
  EXPECT_EQ((VariantSpec{BaseScore::Slack, true, true, false}).name(),
            "slackWR");
  EXPECT_EQ((VariantSpec{BaseScore::Pressure, true, true, true}).name(),
            "pressWR-LS");
}

TEST(VariantSpec, ParseRoundTripsAllNames) {
  for (const VariantSpec& v : allVariants()) {
    const VariantSpec parsed = VariantSpec::parse(v.name());
    EXPECT_EQ(parsed.name(), v.name());
    EXPECT_EQ(parsed.base, v.base);
    EXPECT_EQ(parsed.weighted, v.weighted);
    EXPECT_EQ(parsed.refined, v.refined);
    EXPECT_EQ(parsed.localSearch, v.localSearch);
  }
  EXPECT_THROW(VariantSpec::parse("bogus"), PreconditionError);
}

TEST(VariantSpec, ThereAreExactlySixteenDistinctVariants) {
  const auto variants = allVariants();
  EXPECT_EQ(variants.size(), 16u);
  std::set<std::string> names;
  for (const VariantSpec& v : variants) names.insert(v.name());
  EXPECT_EQ(names.size(), 16u);
}

TEST(VariantSpec, GreedyOnlyVariantsAreTheEightWithoutLs) {
  // Canonical order: the eight greedy-only variants, then the same eight
  // with -LS.
  const auto variants = allVariants();
  ASSERT_EQ(variants.size(), 16u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_FALSE(variants[i].localSearch);
    VariantSpec ls = variants[i];
    ls.localSearch = true;
    EXPECT_EQ(variants[i + 8].name(), ls.name());
  }
}

TEST(RunVariant, LsVariantNeverCostsMoreThanItsGreedyBase) {
  Rng rng(31);
  const EnhancedGraph gc = testing::makeGc(
      {{0, 4}, {1, 3}, {0, 2}, {1, 6}, {2, 5}, {2, 2}},
      {{0, 2}, {1, 3}, {0, 4}, {4, 5}}, {1, 2, 3}, {5, 7, 4});
  const Time deadline = asapMakespan(gc) * 2;
  Power sumWork = 0;
  for (ProcId p = 0; p < gc.numProcs(); ++p) sumWork += gc.workPower(p);
  const PowerProfile profile = generateScenario(
      Scenario::S1, deadline, gc.totalIdlePower(), sumWork, {6, 0.1, 5});

  for (const VariantSpec& base : allVariants()) {
    if (base.localSearch) continue;
    VariantSpec ls = base;
    ls.localSearch = true;
    const Cost cBase = evaluateCost(
        gc, profile, runVariant(gc, profile, deadline, base));
    const Cost cLs =
        evaluateCost(gc, profile, runVariant(gc, profile, deadline, ls));
    EXPECT_LE(cLs, cBase) << base.name();
  }
}

TEST(RunVariant, AllVariantsBeatOrMatchAsapOnAStaircaseProfile) {
  // Strongly time-varying profile with the green window late: ASAP is
  // clearly suboptimal, every carbon-aware variant must do at least as
  // well — a shape check for Figure 1's headline claim.
  const EnhancedGraph gc = testing::makeGc(
      {{0, 4}, {0, 3}, {1, 5}}, {{0, 1}}, {0, 0}, {6, 8});
  PowerProfile profile;
  profile.appendInterval(12, 0);
  profile.appendInterval(24, 20);
  const Time deadline = 36;
  const Schedule asap = scheduleAsap(gc);
  const Cost asapCost = evaluateCost(gc, profile, asap);
  ASSERT_GT(asapCost, 0);
  for (const VariantSpec& v : allVariants()) {
    const Schedule s = runVariant(gc, profile, deadline, v);
    EXPECT_LE(evaluateCost(gc, profile, s), asapCost) << v.name();
  }
}

TEST(RunVariant, CustomParamsAreHonoured) {
  const EnhancedGraph gc = testing::makeChainGc({3, 4}, 1, 4);
  PowerProfile profile;
  profile.appendInterval(10, 2);
  profile.appendInterval(10, 9);
  const VariantSpec spec{BaseScore::Pressure, false, true, true};
  CaWoParams params;
  params.blockSize = 1;
  params.lsRadius = 0; // degenerate LS
  const Schedule s = runVariant(gc, profile, 20, spec, params);
  EXPECT_TRUE(validateSchedule(gc, s, 20).ok);
}

} // namespace
} // namespace cawo
