// End-to-end smoke test: a small pipeline instance goes through HEFT,
// enhanced-graph construction, ASAP, every CaWoSched variant, and the cost
// evaluators without tripping any invariant.

#include <gtest/gtest.h>

#include "core/asap.hpp"
#include "core/carbon_cost.hpp"
#include "core/cawosched.hpp"
#include "exp/campaign_runner.hpp"
#include "sim/instance.hpp"
#include "test_util.hpp"

namespace cawo {
namespace {

TEST(Smoke, EndToEndSmallInstance) {
  InstanceSpec spec;
  spec.family = WorkflowFamily::Atacseq;
  spec.targetTasks = 60;
  spec.nodesPerType = 1;
  spec.scenario = "S1";
  spec.deadlineFactor = 2.0;
  spec.seed = 42;

  const Instance inst = buildInstance(spec);
  EXPECT_GT(inst.gc.numNodes(), inst.graph.numTasks());
  EXPECT_GE(inst.deadline, inst.asapMakespanD);

  const CampaignOutcome outcome =
      runCampaign(testing::singleInstanceCampaign(spec));
  ASSERT_EQ(outcome.records.size(), 17u); // ASAP + 16 variants
  for (const CampaignRecord& run : outcome.records) {
    EXPECT_TRUE(run.feasible) << run.solver;
    EXPECT_GE(run.cost, 0) << run.solver;
  }
}

} // namespace
} // namespace cawo
