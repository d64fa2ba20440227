#include <gtest/gtest.h>

#include "util/require.hpp"

#include "exp/campaign_runner.hpp"
#include "sim/stats.hpp"

namespace cawo {
namespace {

CostMatrix smallMatrix() {
  CostMatrix m;
  m.algorithms = {"A", "B", "C"};
  m.costs = {
      {10, 5, 5},  // B and C tie for rank 1; A is rank 3
      {0, 0, 4},   // A and B tie at 0
      {6, 8, 2},
  };
  return m;
}

TEST(Stats, RankDistributionUsesCompetitionRanking) {
  const auto counts = rankDistribution(smallMatrix());
  // Instance 0: A rank 3, B rank 1, C rank 1 (rank 2 skipped).
  // Instance 1: A rank 1, B rank 1, C rank 3.
  // Instance 2: A rank 2, B rank 3, C rank 1.
  EXPECT_EQ(counts[0][0], 1); // A first once
  EXPECT_EQ(counts[0][1], 1);
  EXPECT_EQ(counts[0][2], 1);
  EXPECT_EQ(counts[1][0], 2); // B first twice
  EXPECT_EQ(counts[1][2], 1);
  EXPECT_EQ(counts[2][0], 2); // C first twice
  EXPECT_EQ(counts[2][2], 1);
}

TEST(Stats, PerformanceProfileBoundaryValues) {
  const auto profile =
      performanceProfile(smallMatrix(), {0.0, 0.5, 1.0});
  // τ=0: every algorithm qualifies on every instance except where ratio is
  // 0... ratio(best/own): instance 1 C: best 0, own 4 → 0 ≥ 0 → counts.
  for (std::size_t a = 0; a < 3; ++a) EXPECT_DOUBLE_EQ(profile[a][0], 1.0);
  // τ=1: fraction of instances where the algorithm attains the best cost.
  EXPECT_DOUBLE_EQ(profile[0][2], 1.0 / 3); // A best on instance 1 only
  EXPECT_DOUBLE_EQ(profile[1][2], 2.0 / 3);
  EXPECT_DOUBLE_EQ(profile[2][2], 2.0 / 3);
}

TEST(Stats, PerformanceProfileZeroCostCountsAsOptimal) {
  CostMatrix m;
  m.algorithms = {"A", "B"};
  m.costs = {{0, 0}};
  const auto profile = performanceProfile(m, {1.0});
  EXPECT_DOUBLE_EQ(profile[0][0], 1.0);
  EXPECT_DOUBLE_EQ(profile[1][0], 1.0);
}

TEST(Stats, RatiosVsBaselineSkipsUndefined) {
  CostMatrix m;
  m.algorithms = {"base", "algo"};
  m.costs = {
      {10, 6}, // 0.6
      {0, 0},  // 1.0 (both zero)
      {0, 5},  // skipped: cannot divide by zero baseline
      {4, 8},  // 2.0 (baseline wins)
  };
  const auto ratios = ratiosVsBaseline(m, 0, 1);
  ASSERT_EQ(ratios.size(), 3u);
  EXPECT_DOUBLE_EQ(ratios[0], 0.6);
  EXPECT_DOUBLE_EQ(ratios[1], 1.0);
  EXPECT_DOUBLE_EQ(ratios[2], 2.0);
}

TEST(Stats, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(medianOf({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(medianOf({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(medianOf({7.0}), 7.0);
  EXPECT_THROW(medianOf({}), PreconditionError);
}

TEST(Stats, MeanIsArithmetic) {
  EXPECT_DOUBLE_EQ(meanOf({1.0, 2.0, 3.0}), 2.0);
  EXPECT_THROW(meanOf({}), PreconditionError);
}

TEST(Stats, BoxStatsQuartilesAndOutliers) {
  // 1..8 plus a far outlier.
  const BoxStats s = boxStats({1, 2, 3, 4, 5, 6, 7, 8, 100});
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.median, 5.0);
  EXPECT_EQ(s.outliers.size(), 1u);
  EXPECT_DOUBLE_EQ(s.outliers[0], 100.0);
  EXPECT_LE(s.whiskerHi, 8.0);
}

TEST(Stats, BoxStatsSingleValue) {
  const BoxStats s = boxStats({4.2});
  EXPECT_DOUBLE_EQ(s.min, 4.2);
  EXPECT_DOUBLE_EQ(s.q1, 4.2);
  EXPECT_DOUBLE_EQ(s.median, 4.2);
  EXPECT_DOUBLE_EQ(s.q3, 4.2);
  EXPECT_TRUE(s.outliers.empty());
}

CampaignRecord cell(Cost cost, bool skipped = false, std::uint64_t seed = 1) {
  CampaignRecord r;
  r.cost = cost;
  r.skipped = skipped;
  r.spec.seed = seed;
  return r;
}

/// An outcome with the given cell labels and instance-major records.
CampaignOutcome outcomeOf(std::vector<std::string> labels,
                          std::vector<CampaignRecord> records) {
  CampaignOutcome o;
  o.numInstances = records.size() / labels.size();
  o.solvers = std::move(labels);
  o.records = std::move(records);
  return o;
}

TEST(Stats, ToCostMatrixChecksConsistency) {
  const std::vector<std::string> labels{"A", "B"};
  // Every instance must skip the same cells.
  EXPECT_THROW(toCostMatrix(outcomeOf(
                   labels, {cell(1), cell(2), cell(3), cell(0, true)})),
               PreconditionError);
  EXPECT_THROW(toCostMatrix(outcomeOf(labels, {})), PreconditionError);
  // Every instance must have all its cells.
  CampaignOutcome torn = outcomeOf(labels, {cell(1)});
  torn.numInstances = 1;
  EXPECT_THROW(toCostMatrix(torn), PreconditionError);
  const CostMatrix m = toCostMatrix(outcomeOf(labels, {cell(1), cell(2)}));
  EXPECT_EQ(m.numInstances(), 1u);
  EXPECT_EQ(m.numAlgorithms(), 2u);
  EXPECT_EQ(m.costs[0][1], 2);
}

TEST(Stats, ToCostMatrixLeavesOutSkippedCells) {
  const CostMatrix m = toCostMatrix(outcomeOf(
      {"A", "B"}, {cell(1), cell(0, true), cell(4), cell(0, true)}));
  EXPECT_EQ(m.algorithms, std::vector<std::string>{"A"});
  ASSERT_EQ(m.numInstances(), 2u);
  EXPECT_EQ(m.costs[1], std::vector<Cost>{4});
}

TEST(Stats, ToCostMatrixKeepsOnlyAcceptedInstances) {
  const CampaignOutcome outcome = outcomeOf(
      {"A", "B"}, {cell(1, false, 1), cell(2, false, 1), cell(3, false, 2),
                   cell(4, false, 2)});
  const CostMatrix m = toCostMatrix(
      outcome, [](const InstanceSpec& s) { return s.seed == 2; });
  ASSERT_EQ(m.numInstances(), 1u);
  EXPECT_EQ(m.costs[0], (std::vector<Cost>{3, 4}));
  // A filter that keeps nothing leaves no results.
  EXPECT_THROW(
      toCostMatrix(outcome, [](const InstanceSpec&) { return false; }),
      PreconditionError);
}

} // namespace
} // namespace cawo
