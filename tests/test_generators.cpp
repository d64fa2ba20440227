#include <gtest/gtest.h>

#include "util/require.hpp"

#include <algorithm>

#include "workflow/generators.hpp"

namespace cawo {
namespace {

class FamilyGen : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FamilyGen, SizeIsCloseToTargetAndGraphIsADag) {
  const auto [familyI, target] = GetParam();
  const auto family = static_cast<WorkflowFamily>(familyI);
  WorkflowGenOptions opts;
  opts.targetTasks = target;
  opts.seed = 5;
  const TaskGraph g = generateWorkflow(family, opts);
  EXPECT_TRUE(g.isAcyclic());
  // Size within one per-sample template of the target.
  EXPECT_GE(g.numTasks(), std::max(1, target - 12));
  EXPECT_LE(g.numTasks(), target + 12);
  // All weights positive; vertex weights dominate edge weights on average.
  double vertexSum = 0.0, edgeSum = 0.0;
  for (TaskId v = 0; v < g.numTasks(); ++v) {
    EXPECT_GT(g.work(v), 0);
    vertexSum += static_cast<double>(g.work(v));
  }
  for (const auto& e : g.edges()) {
    EXPECT_GE(e.data, 0);
    edgeSum += static_cast<double>(e.data);
  }
  if (!g.edges().empty()) {
    EXPECT_GT(vertexSum / static_cast<double>(g.numTasks()),
              edgeSum / static_cast<double>(g.edges().size()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamiliesAndSizes, FamilyGen,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(20, 100, 400)));

TEST(Generators, SameSeedReproducesTheGraph) {
  WorkflowGenOptions opts;
  opts.targetTasks = 120;
  opts.seed = 42;
  const TaskGraph a = generateWorkflow(WorkflowFamily::Eager, opts);
  const TaskGraph b = generateWorkflow(WorkflowFamily::Eager, opts);
  ASSERT_EQ(a.numTasks(), b.numTasks());
  ASSERT_EQ(a.numEdges(), b.numEdges());
  for (TaskId v = 0; v < a.numTasks(); ++v) {
    EXPECT_EQ(a.work(v), b.work(v));
    EXPECT_EQ(a.name(v), b.name(v));
  }
  for (std::size_t i = 0; i < a.numEdges(); ++i) {
    EXPECT_EQ(a.edges()[i].src, b.edges()[i].src);
    EXPECT_EQ(a.edges()[i].dst, b.edges()[i].dst);
    EXPECT_EQ(a.edges()[i].data, b.edges()[i].data);
  }
}

TEST(Generators, DifferentSeedsChangeWeights) {
  WorkflowGenOptions a;
  a.targetTasks = 60;
  a.seed = 1;
  WorkflowGenOptions b = a;
  b.seed = 2;
  const TaskGraph ga = generateWorkflow(WorkflowFamily::Atacseq, a);
  const TaskGraph gb = generateWorkflow(WorkflowFamily::Atacseq, b);
  ASSERT_EQ(ga.numTasks(), gb.numTasks());
  int different = 0;
  for (TaskId v = 0; v < ga.numTasks(); ++v)
    if (ga.work(v) != gb.work(v)) ++different;
  EXPECT_GT(different, 0);
}

TEST(Generators, AtacseqHasGlobalMergeStructure) {
  WorkflowGenOptions opts;
  opts.targetTasks = 80;
  const TaskGraph g = generateWorkflow(WorkflowFamily::Atacseq, opts);
  // multiqc (task 2 by construction) collects from every sample.
  EXPECT_EQ(g.name(2), "multiqc");
  EXPECT_GT(g.inDegree(2), 4u);
  EXPECT_EQ(g.outDegree(2), 0u);
  // prepare_genome fans out to every sample's aligner.
  EXPECT_EQ(g.name(0), "prepare_genome");
  EXPECT_GT(g.outDegree(0), 4u);
  EXPECT_EQ(g.inDegree(0), 0u);
}

TEST(Generators, EagerBranchesIntoTwoMappingRoutes) {
  WorkflowGenOptions opts;
  opts.targetTasks = 40;
  const TaskGraph g = generateWorkflow(WorkflowFamily::Eager, opts);
  // Find an adapter_removal task; it must have two mapping successors.
  bool found = false;
  for (TaskId v = 0; v < g.numTasks(); ++v) {
    if (g.name(v).find("adapter_removal") != std::string::npos) {
      EXPECT_EQ(g.outDegree(v), 2u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Generators, ChainShape) {
  WorkflowGenOptions opts;
  const TaskGraph g = genChain(5, opts);
  EXPECT_EQ(g.numTasks(), 5);
  EXPECT_EQ(g.numEdges(), 4u);
  EXPECT_TRUE(g.isAcyclic());
  for (TaskId v = 0; v < 4; ++v) EXPECT_TRUE(g.hasEdge(v, v + 1));
}

TEST(Generators, ForkJoinShape) {
  WorkflowGenOptions opts;
  const TaskGraph g = genForkJoin(3, 2, opts);
  EXPECT_EQ(g.numTasks(), 2 + 3 * 2);
  EXPECT_EQ(g.outDegree(0), 3u); // source fans out
  EXPECT_EQ(g.inDegree(1), 3u);  // sink joins
  EXPECT_TRUE(g.isAcyclic());
}

TEST(Generators, IndependentHasNoEdges) {
  WorkflowGenOptions opts;
  const TaskGraph g = genIndependent(7, opts);
  EXPECT_EQ(g.numTasks(), 7);
  EXPECT_EQ(g.numEdges(), 0u);
}

TEST(Generators, LayeredRandomConnectsConsecutiveLayers) {
  WorkflowGenOptions opts;
  opts.seed = 9;
  const TaskGraph g = genLayeredRandom(30, 5, 3, opts);
  EXPECT_EQ(g.numTasks(), 30);
  EXPECT_TRUE(g.isAcyclic());
  // Every non-first-layer task has at least one predecessor.
  for (TaskId v = 6; v < 30; ++v) EXPECT_GE(g.inDegree(v), 1u);
}

TEST(Generators, RandomDagEdgeDensityTracksProbability) {
  WorkflowGenOptions opts;
  opts.seed = 15;
  const TaskGraph dense = genRandomDag(30, 0.5, opts);
  const TaskGraph sparse = genRandomDag(30, 0.05, opts);
  EXPECT_TRUE(dense.isAcyclic());
  EXPECT_GT(dense.numEdges(), sparse.numEdges());
}

TEST(Generators, RejectsBadParameters) {
  WorkflowGenOptions opts;
  EXPECT_THROW(genChain(0, opts), PreconditionError);
  EXPECT_THROW(genForkJoin(0, 1, opts), PreconditionError);
  EXPECT_THROW(genLayeredRandom(3, 5, 1, opts), PreconditionError);
  EXPECT_THROW(genRandomDag(5, 1.5, opts), PreconditionError);
  opts.targetTasks = 0;
  EXPECT_THROW(generateWorkflow(WorkflowFamily::Atacseq, opts),
               PreconditionError);
}

TEST(Generators, FamilyNamesAreStable) {
  EXPECT_STREQ(familyName(WorkflowFamily::Atacseq), "atacseq");
  EXPECT_STREQ(familyName(WorkflowFamily::Bacass), "bacass");
  EXPECT_STREQ(familyName(WorkflowFamily::Eager), "eager");
  EXPECT_STREQ(familyName(WorkflowFamily::Methylseq), "methylseq");
}

} // namespace
} // namespace cawo
