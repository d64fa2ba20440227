#include <gtest/gtest.h>

#include "util/require.hpp"

#include <sstream>

#include "core/asap.hpp"
#include "core/local_search.hpp"
#include "core/schedule_io.hpp"
#include "heft/heft.hpp"
#include "profile/profile_io.hpp"
#include "profile/scenario.hpp"
#include "test_util.hpp"
#include "workflow/generators.hpp"

namespace cawo {
namespace {

TEST(ProfileIo, RoundTripPreservesIntervals) {
  const PowerProfile p = generateScenario(Scenario::S1, 240, 100, 200,
                                          {24, 0.1, 5});
  const PowerProfile back = readProfileCsvString(toProfileCsvString(p));
  ASSERT_EQ(back.numIntervals(), p.numIntervals());
  for (std::size_t j = 0; j < p.numIntervals(); ++j) {
    EXPECT_EQ(back.interval(j).begin, p.interval(j).begin);
    EXPECT_EQ(back.interval(j).end, p.interval(j).end);
    EXPECT_EQ(back.interval(j).green, p.interval(j).green);
  }
}

TEST(ProfileIo, ParsesCommentsAndBlankLines) {
  const std::string csv = R"(# solar trace
length,green

10,5   # morning
20 , 7
)";
  const PowerProfile p = readProfileCsvString(csv);
  ASSERT_EQ(p.numIntervals(), 2u);
  EXPECT_EQ(p.interval(0).length(), 10);
  EXPECT_EQ(p.interval(1).green, 7);
}

TEST(ProfileIo, RejectsMalformedInput) {
  EXPECT_THROW(readProfileCsvString(""), PreconditionError);
  EXPECT_THROW(readProfileCsvString("10"), PreconditionError);
  EXPECT_THROW(readProfileCsvString("ten,5"), PreconditionError);
  EXPECT_THROW(readProfileCsvString("10,5,3"), PreconditionError);
  EXPECT_THROW(readProfileCsvString("0,5"), PreconditionError); // zero length
}

TEST(ProfileIo, FileRoundTrip) {
  const PowerProfile p = PowerProfile::uniform(50, 9);
  const std::string path = ::testing::TempDir() + "/cawo_profile.csv";
  writeProfileCsvFile(path, p);
  const PowerProfile back = readProfileCsvFile(path);
  EXPECT_EQ(back.horizon(), 50);
  EXPECT_EQ(back.greenAt(0), 9);
  EXPECT_THROW(readProfileCsvFile("/no/such/file.csv"), PreconditionError);
}

TEST(ScheduleIo, CsvListsEveryNodeWithKinds) {
  WorkflowGenOptions opts;
  opts.targetTasks = 30;
  opts.seed = 2;
  const TaskGraph g = generateWorkflow(WorkflowFamily::Atacseq, opts);
  const Platform pf = Platform::scaled(1);
  const HeftResult heft = runHeft(g, pf);
  const EnhancedGraph gc =
      EnhancedGraph::build(g, pf, heft.mapping, {}, &heft.startTimes);
  const Schedule s = scheduleAsap(gc);

  const std::string csv = toScheduleCsvString(gc, s, &g);
  std::istringstream lines(csv);
  std::string line;
  std::getline(lines, line);
  EXPECT_EQ(line, "node,kind,name,proc,start,end,len");
  int rows = 0, comms = 0;
  while (std::getline(lines, line)) {
    ++rows;
    if (line.find(",comm,") != std::string::npos) ++comms;
  }
  EXPECT_EQ(rows, gc.numNodes());
  EXPECT_EQ(comms, gc.numNodes() - g.numTasks());
  // Task names from the workflow appear in the CSV.
  EXPECT_NE(csv.find("prepare_genome"), std::string::npos);
}

TEST(ScheduleIo, CsvRejectsMismatchedSchedule) {
  const EnhancedGraph gc = testing::makeChainGc({2, 3});
  Schedule s(1);
  std::ostringstream os;
  EXPECT_THROW(writeScheduleCsv(os, gc, s), PreconditionError);
}

TEST(ScheduleIo, GanttRendersOneRowPerProcessor) {
  const EnhancedGraph gc =
      testing::makeGc({{0, 5}, {1, 5}}, {}, {1, 1}, {1, 1});
  Schedule s(2);
  s.setStart(0, 0);
  s.setStart(1, 5);
  std::ostringstream os;
  printGantt(os, gc, s, 10, 20);
  const std::string text = os.str();
  EXPECT_NE(text.find("p0"), std::string::npos);
  EXPECT_NE(text.find("p1"), std::string::npos);
  // Task A occupies the first half of p0's row.
  EXPECT_NE(text.find("AAAAAAAAAA"), std::string::npos);
}

TEST(ScheduleIo, GanttValidatesArguments) {
  const EnhancedGraph gc = testing::makeChainGc({2});
  Schedule s(1);
  s.setStart(0, 0);
  std::ostringstream os;
  EXPECT_THROW(printGantt(os, gc, s, 0), PreconditionError);
  EXPECT_THROW(printGantt(os, gc, s, 10, 2), PreconditionError);
}

TEST(LocalSearchStrategy, FirstImprovementTakesTheEarliestImprovingMove) {
  // Task at 0; two improving targets inside the radius: +2 (small gain)
  // and +8 (big gain). The first round stops at the earliest, start 2,
  // where the window already straddles into the milder interval; the
  // climb then goes 2 → 3 → 7 → 8, each move the earliest improving
  // target of its round, where taking the largest gain would be one move.
  const EnhancedGraph gc = testing::makeChainGc({2}, 0, 10);
  PowerProfile p;
  p.appendInterval(3, 0);  // current position: overflow 10
  p.appendInterval(5, 6);  // mild improvement: overflow 4
  p.appendInterval(12, 20); // full improvement: overflow 0
  LocalSearchOptions opts;
  opts.radius = 8;

  Schedule first(1);
  first.setStart(0, 0);
  const LocalSearchStats stats = localSearch(gc, p, 20, first, opts);
  EXPECT_EQ(stats.movesApplied, 4u);
  EXPECT_EQ(stats.rounds, 5u);
  // Each round scores the window [start − 8, start + 8] ∩ [0, 18] around
  // the task's start then: 0, 2, 3, 7 and 8.
  EXPECT_EQ(stats.probes, 9u + 11u + 12u + 16u + 17u);
  EXPECT_EQ(first.start(0), 8);
  EXPECT_EQ(stats.initialCost, 20);
  EXPECT_EQ(stats.finalCost, 0);
}

TEST(LocalSearchStrategy, ClimbIsMonotone) {
  Rng rng(2024);
  const EnhancedGraph gc = testing::makeGc(
      {{0, 4}, {1, 3}, {0, 2}, {1, 6}}, {{0, 2}}, {1, 2}, {5, 7});
  const Time deadline = 40;
  const PowerProfile profile = testing::randomProfile(deadline, 5, 0, 15, rng);
  for (int trial = 0; trial < 2; ++trial) {
    Schedule s = testing::randomSchedule(gc, deadline, rng);
    const auto stats = localSearch(gc, profile, deadline, s);
    EXPECT_LE(stats.finalCost, stats.initialCost);
    EXPECT_TRUE(validateSchedule(gc, s, deadline).ok);
  }
}

} // namespace
} // namespace cawo
