// Cross-module integration tests: the full paper pipeline at small scale,
// including campaign runs and the statistics used by the figures.

#include <gtest/gtest.h>

#include "core/asap.hpp"
#include "core/carbon_cost.hpp"
#include "exp/campaign_runner.hpp"
#include "sim/instance.hpp"
#include "sim/stats.hpp"
#include "test_util.hpp"

namespace cawo {
namespace {

using testing::expectAllFeasible;
using testing::singleInstanceCampaign;

TEST(Integration, InstanceBuildIsFullyDeterministic) {
  InstanceSpec spec;
  spec.family = WorkflowFamily::Methylseq;
  spec.targetTasks = 80;
  spec.nodesPerType = 1;
  spec.scenario = "S3";
  spec.deadlineFactor = 1.5;
  spec.seed = 123;
  const Instance a = buildInstance(spec);
  const Instance b = buildInstance(spec);
  EXPECT_EQ(a.deadline, b.deadline);
  EXPECT_EQ(a.gc.numNodes(), b.gc.numNodes());
  EXPECT_EQ(a.asapMakespanD, b.asapMakespanD);
  ASSERT_EQ(a.profile.numIntervals(), b.profile.numIntervals());
  for (std::size_t j = 0; j < a.profile.numIntervals(); ++j)
    EXPECT_EQ(a.profile.interval(j).green, b.profile.interval(j).green);
  const CampaignOutcome ra = runCampaign(singleInstanceCampaign(spec));
  const CampaignOutcome rb = runCampaign(singleInstanceCampaign(spec));
  expectAllFeasible(ra);
  expectAllFeasible(rb);
  ASSERT_EQ(ra.records.size(), rb.records.size());
  for (std::size_t i = 0; i < ra.records.size(); ++i)
    EXPECT_EQ(ra.records[i].cost, rb.records[i].cost) << ra.records[i].solver;
}

TEST(Integration, DeadlineEqualsFactorTimesAsapMakespan) {
  InstanceSpec spec;
  spec.targetTasks = 50;
  spec.nodesPerType = 1;
  spec.deadlineFactor = 3.0;
  spec.seed = 5;
  const Instance inst = buildInstance(spec);
  EXPECT_EQ(inst.deadline, 3 * inst.asapMakespanD);
  EXPECT_EQ(inst.profile.horizon(), inst.deadline);
}

TEST(Integration, TightDeadlineStillYieldsValidSchedules) {
  InstanceSpec spec;
  spec.targetTasks = 60;
  spec.nodesPerType = 1;
  spec.deadlineFactor = 1.0; // D itself — zero slack on the critical path
  spec.seed = 9;
  const CampaignOutcome outcome = runCampaign(singleInstanceCampaign(spec));
  ASSERT_EQ(outcome.records.size(), 17u);
  for (const CampaignRecord& r : outcome.records) {
    EXPECT_FALSE(r.skipped) << r.solver;
    EXPECT_TRUE(r.feasible) << r.solver << " produced an invalid schedule";
  }
}

TEST(Integration, StatsPipelineRunsOnCampaignRecords) {
  CampaignSpec campaign;
  campaign.families = {WorkflowFamily::Bacass};
  campaign.tasks = {30};
  campaign.nodesPerType = {1};
  campaign.seeds = {13};
  const CampaignOutcome outcome = runCampaign(campaign);
  expectAllFeasible(outcome);
  const CostMatrix m = toCostMatrix(outcome);
  EXPECT_EQ(m.numInstances(), 16u);
  EXPECT_EQ(m.numAlgorithms(), 17u);

  const auto ranks = rankDistribution(m);
  int totalFirstPlaces = 0;
  for (const auto& row : ranks) totalFirstPlaces += row[0];
  EXPECT_GE(totalFirstPlaces, 16); // at least one winner per instance

  const auto profile = performanceProfile(m, {0.0, 0.5, 1.0});
  for (std::size_t a = 0; a < m.numAlgorithms(); ++a) {
    EXPECT_DOUBLE_EQ(profile[a][0], 1.0);
    EXPECT_LE(profile[a][2], 1.0);
  }
}

TEST(Integration, CarbonAwareVariantsHelpOnLateGreenProfiles) {
  // Shape check behind Figures 4/15: with green power arriving late (S3 has
  // its bump after the start; S1 mid-horizon) and a generous deadline, the
  // best CaWoSched variant should beat ASAP on most instances.
  CampaignSpec campaign;
  campaign.families = {WorkflowFamily::Atacseq};
  campaign.tasks = {60};
  campaign.nodesPerType = {1};
  campaign.scenarios = {"S1"};
  campaign.deadlineFactors = {3.0};
  campaign.seeds = {1, 2, 3};
  const CampaignOutcome outcome = runCampaign(campaign);
  expectAllFeasible(outcome);
  int wins = 0;
  for (std::size_t i = 0; i < outcome.numInstances; ++i) {
    const auto cells = outcome.instanceCells(i);
    const Cost asap = cells.front().cost;
    Cost best = asap;
    for (const CampaignRecord& r : cells) best = std::min(best, r.cost);
    if (best < asap || asap == 0) ++wins;
  }
  EXPECT_GE(wins, 2) << "carbon-aware variants should usually beat ASAP";
}

TEST(Integration, LabelIsHumanReadable) {
  InstanceSpec spec;
  spec.family = WorkflowFamily::Eager;
  spec.targetTasks = 123;
  spec.nodesPerType = 2;
  spec.scenario = "S2";
  spec.deadlineFactor = 1.5;
  EXPECT_EQ(spec.label(), "eager-123/c2/S2/d1.5");
}

} // namespace
} // namespace cawo
