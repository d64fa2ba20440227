// The telemetry layer (src/obs/): histogram edge cases pinned for the
// serve daemon's byte-stability contract, and the trace recorder — state
// machine, Chrome trace-event JSON shape, span nesting by containment,
// the summary's column layout, and the explicit-timestamp span API.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exp/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cawo::obs {
namespace {

/// Every trace test runs against the (process-global) recorder, so each
/// one starts from a clean slate and leaves tracing off.
class TraceTest : public ::testing::Test {
protected:
  void SetUp() override {
    TraceRecorder::global().setState(TraceState::Off);
    TraceRecorder::global().clear();
  }
  void TearDown() override {
    TraceRecorder::global().setState(TraceState::Off);
    TraceRecorder::global().clear();
  }

  JsonValue writtenTrace() {
    std::ostringstream out;
    TraceRecorder::global().writeChromeTrace(out);
    return JsonValue::parse(out.str());
  }
};

// ---------------------------------------------------------------------
// Histogram — the nearest-rank edge cases the serve stats contract
// depends on (n = 0, n = 1, out-of-range q).
// ---------------------------------------------------------------------

TEST(Histogram, EmptyReportsZeroForEveryStatistic) {
  Histogram h(std::vector<double>{});
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  for (const double q : {0.0, 0.5, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(h.percentile(q), 0.0) << "q=" << q;
}

TEST(Histogram, SingleSampleIsEveryPercentile) {
  Histogram h(std::vector<double>{});
  h.record(7.25);
  EXPECT_EQ(h.count(), 1);
  EXPECT_DOUBLE_EQ(h.mean(), 7.25);
  EXPECT_DOUBLE_EQ(h.min(), 7.25);
  EXPECT_DOUBLE_EQ(h.max(), 7.25);
  for (const double q : {0.0, 0.5, 0.99, 0.999, 1.0})
    EXPECT_DOUBLE_EQ(h.percentile(q), 7.25) << "q=" << q;
}

TEST(Histogram, PercentileUsesNearestRankFloorQN) {
  // The serve daemon's historical formula: sorted[floor(q*n)], clamped.
  Histogram h(std::vector<double>{});
  for (const double v : {5.0, 1.0, 4.0, 2.0, 3.0}) h.record(v);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 3.0);  // floor(0.5*5)=2 → 3.0
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 5.0); // floor(4.95)=4 → 5.0
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 5.0);  // rank 5 clamps to 4
}

TEST(Histogram, OutOfRangeQuantilesClampInsteadOfThrowing) {
  Histogram h(std::vector<double>{});
  h.record(1.0);
  h.record(2.0);
  EXPECT_DOUBLE_EQ(h.percentile(-0.5), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(2.0), 2.0);
}

TEST(Histogram, BucketCountsPartitionTheSamples) {
  Histogram h(std::vector<double>{1.0, 10.0, 100.0});
  for (const double v : {0.5, 1.0, 5.0, 50.0, 500.0, 5000.0}) h.record(v);
  const std::vector<std::int64_t> counts = h.bucketCounts();
  ASSERT_EQ(counts.size(), 4u); // 3 bounds + overflow
  EXPECT_EQ(counts[0], 2); // 0.5, 1.0 (bounds are inclusive upper)
  EXPECT_EQ(counts[1], 1); // 5.0
  EXPECT_EQ(counts[2], 1); // 50.0
  EXPECT_EQ(counts[3], 2); // 500, 5000 overflow
  std::int64_t total = 0;
  for (const std::int64_t c : counts) total += c;
  EXPECT_EQ(total, h.count());
}

TEST(Histogram, SampleOnlyModeHasNoBuckets) {
  Histogram h(std::vector<double>{});
  h.record(3.0);
  EXPECT_TRUE(h.bucketBounds().empty());
  EXPECT_TRUE(h.bucketCounts().empty());
}

TEST(Histogram, ClearResetsEverything) {
  Histogram h; // default latency buckets
  h.record(1.5);
  h.record(40.0);
  EXPECT_EQ(h.count(), 2);
  h.clear();
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
  for (const std::int64_t c : h.bucketCounts()) EXPECT_EQ(c, 0);
}

// ---------------------------------------------------------------------
// TraceRecorder — states and JSON shape.
// ---------------------------------------------------------------------

TEST_F(TraceTest, OffAndIdleStoreNothing) {
  {
    TraceScope off("noop");
  }
  TraceRecorder::global().setState(TraceState::Idle);
  {
    TraceScope idle("noop");
    EXPECT_FALSE(idle.recording());
  }
  EXPECT_EQ(TraceRecorder::global().eventCount(), 0u);
}

TEST_F(TraceTest, RecordingStoresSpansWithArgs) {
  TraceRecorder::global().setState(TraceState::Recording);
  {
    TraceScope span("unit.work");
    EXPECT_TRUE(span.recording());
    span.arg("answer", static_cast<std::int64_t>(42));
    span.arg("label", std::string("abc"));
    span.arg("ratio", 0.5);
  }
  traceInstant("unit.mark");
  traceCounter("unit.level", 3.0);
  TraceRecorder::global().setState(TraceState::Off);
  EXPECT_EQ(TraceRecorder::global().eventCount(), 3u);

  const JsonValue doc = writtenTrace();
  ASSERT_TRUE(doc.has("traceEvents"));
  bool sawSpan = false, sawInstant = false, sawCounter = false;
  for (const JsonValue& ev : doc.at("traceEvents").asArray()) {
    const std::string ph = ev.at("ph").asString();
    if (ph == "M") continue;
    EXPECT_TRUE(ev.has("pid"));
    EXPECT_TRUE(ev.has("tid"));
    EXPECT_TRUE(ev.has("ts"));
    if (ph == "X") {
      sawSpan = true;
      EXPECT_EQ(ev.at("name").asString(), "unit.work");
      EXPECT_TRUE(ev.has("dur"));
      EXPECT_EQ(ev.at("args").at("answer").asInt(), 42);
      EXPECT_EQ(ev.at("args").at("label").asString(), "abc");
      EXPECT_DOUBLE_EQ(ev.at("args").at("ratio").asDouble(), 0.5);
    } else if (ph == "i") {
      sawInstant = true;
      EXPECT_EQ(ev.at("name").asString(), "unit.mark");
      EXPECT_EQ(ev.at("s").asString(), "t");
    } else if (ph == "C") {
      sawCounter = true;
      EXPECT_EQ(ev.at("name").asString(), "unit.level");
      EXPECT_DOUBLE_EQ(ev.at("args").at("value").asDouble(), 3.0);
    }
  }
  EXPECT_TRUE(sawSpan);
  EXPECT_TRUE(sawInstant);
  EXPECT_TRUE(sawCounter);
}

TEST_F(TraceTest, EmptyTraceIsStillValidJson) {
  const JsonValue doc = writtenTrace();
  ASSERT_TRUE(doc.has("traceEvents"));
  EXPECT_EQ(doc.at("traceEvents").kind(), JsonValue::Kind::Array);
  EXPECT_EQ(doc.at("displayTimeUnit").asString(), "ms");
}

TEST_F(TraceTest, ChildSpansNestWithinTheirParent) {
  TraceRecorder::global().setState(TraceState::Recording);
  {
    TraceScope parent("outer");
    {
      TraceScope child("inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  TraceRecorder::global().setState(TraceState::Off);

  const JsonValue doc = writtenTrace();
  double outerTs = -1, outerDur = -1, innerTs = -1, innerDur = -1;
  for (const JsonValue& ev : doc.at("traceEvents").asArray()) {
    if (ev.at("ph").asString() != "X") continue;
    if (ev.at("name").asString() == "outer") {
      outerTs = ev.at("ts").asDouble();
      outerDur = ev.at("dur").asDouble();
    } else if (ev.at("name").asString() == "inner") {
      innerTs = ev.at("ts").asDouble();
      innerDur = ev.at("dur").asDouble();
    }
  }
  ASSERT_GE(outerTs, 0.0);
  ASSERT_GE(innerTs, 0.0);
  EXPECT_GE(innerTs, outerTs);
  EXPECT_LE(innerTs + innerDur, outerTs + outerDur + 1e-9);

  std::ostringstream summary;
  TraceRecorder::global().writeSummary(summary);
  const std::string text = summary.str();
  EXPECT_NE(text.find("outer"), std::string::npos);
  EXPECT_NE(text.find("outer/inner"), std::string::npos);
}

// Regression: a nest of long span names gives a path far wider than the
// old fixed 44-character name column. Every row must still end in its own
// newline, carry all four numbers, and start its numeric columns at the
// same offset as every other row.
TEST_F(TraceTest, SummaryRowsStayAlignedForLongPaths) {
  // A pause between nested starts keeps every child's timestamp strictly
  // after its parent's, so the summary nests them deterministically.
  const auto pause = [] {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  };
  TraceRecorder::global().setState(TraceState::Recording);
  {
    TraceScope a("replay.resolve.with.a.deliberately.long.name");
    pause();
    TraceScope b("solve.with.a.deliberately.long.span.name");
    pause();
    TraceScope c("greedy.residual.with.a.deliberately.long.name");
    pause();
    TraceScope d("context.budget_tree.with.a.long.name");
    pause();
  }
  TraceRecorder::global().setState(TraceState::Off);

  std::ostringstream out;
  TraceRecorder::global().writeSummary(out);
  const std::string text = out.str();
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u + 4u) << text; // banner, header, four rows

  const std::string& header = lines[1];
  ASSERT_EQ(header.rfind("span ", 0), 0u) << header;
  // The count column is 9 wide and right-aligned under its title.
  const std::size_t numericStart = header.find("count") + 5 - 9;
  std::size_t longest = 0;
  for (std::size_t i = 2; i < lines.size(); ++i) {
    const std::string& row = lines[i];
    EXPECT_EQ(row.size(), header.size()) << row;
    ASSERT_GT(row.size(), numericStart) << row;
    EXPECT_EQ(row[numericStart - 1], ' ') << row;
    std::istringstream name(row.substr(0, numericStart));
    std::string path, rest;
    name >> path;
    EXPECT_FALSE(name >> rest) << "name column holds more than the path: "
                               << row;
    longest = std::max(longest, path.size());

    std::istringstream numbers(row.substr(numericStart));
    long long count = -1;
    double total = -1, mean = -1, p99 = -1;
    ASSERT_TRUE(numbers >> count >> total >> mean >> p99) << row;
    EXPECT_EQ(count, 1);
    EXPECT_GE(total, 0.0);
    EXPECT_FALSE(numbers >> rest) << "trailing field in " << row;
  }
  EXPECT_GT(longest, 120u);
}

TEST_F(TraceTest, ExplicitTimestampSpansUseTheGivenEndpoints) {
  using Clock = std::chrono::steady_clock;
  TraceRecorder::global().setState(TraceState::Recording);
  const Clock::time_point begin = Clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const Clock::time_point end = Clock::now();
  traceSpanBetween("window", begin, end);
  TraceRecorder::global().setState(TraceState::Off);

  const JsonValue doc = writtenTrace();
  bool found = false;
  for (const JsonValue& ev : doc.at("traceEvents").asArray()) {
    if (ev.at("ph").asString() != "X") continue;
    ASSERT_EQ(ev.at("name").asString(), "window");
    found = true;
    // 2ms sleep → at least 1000µs duration recorded.
    EXPECT_GE(ev.at("dur").asDouble(), 1000.0);
  }
  EXPECT_TRUE(found);
}

TEST_F(TraceTest, AsyncSpansEmitPairedNestableBeginEnd) {
  using Clock = std::chrono::steady_clock;
  TraceRecorder::global().setState(TraceState::Recording);
  const Clock::time_point begin = Clock::now();
  const Clock::time_point end = begin + std::chrono::milliseconds(3);
  traceAsyncSpanBetween("request", 7, begin, end,
                        {TraceArg{"id", "r1", true}});
  TraceRecorder::global().setState(TraceState::Off);

  const JsonValue doc = writtenTrace();
  const JsonValue *beginEv = nullptr, *endEv = nullptr;
  for (const JsonValue& ev : doc.at("traceEvents").asArray()) {
    const std::string ph = ev.at("ph").asString();
    if (ph == "b") beginEv = &ev;
    if (ph == "e") endEv = &ev;
  }
  ASSERT_NE(beginEv, nullptr);
  ASSERT_NE(endEv, nullptr);
  // The pair shares (cat, id, name) — that is what stacks them onto one
  // async track — and spans the given 3ms window.
  EXPECT_EQ(beginEv->at("name").asString(), "request");
  EXPECT_EQ(endEv->at("name").asString(), "request");
  EXPECT_EQ(beginEv->at("cat").asString(), "request");
  EXPECT_EQ(beginEv->at("id").asString(), "0x7");
  EXPECT_EQ(endEv->at("id").asString(), "0x7");
  EXPECT_NEAR(endEv->at("ts").asDouble() - beginEv->at("ts").asDouble(),
              3000.0, 1.0);
  EXPECT_EQ(beginEv->at("args").at("id").asString(), "r1");
}

TEST_F(TraceTest, ThreadLanesGetDistinctTidsAndNames) {
  TraceRecorder::global().setState(TraceState::Recording);
  {
    TraceScope main("on-main");
  }
  std::thread worker([] {
    traceSetThreadName("unit-worker");
    TraceScope span("on-worker");
  });
  worker.join();
  TraceRecorder::global().setState(TraceState::Off);

  const JsonValue doc = writtenTrace();
  std::int64_t mainTid = -1, workerTid = -1;
  bool sawThreadName = false;
  for (const JsonValue& ev : doc.at("traceEvents").asArray()) {
    const std::string ph = ev.at("ph").asString();
    if (ph == "M" && ev.at("name").asString() == "thread_name" &&
        ev.at("args").at("name").asString() == "unit-worker")
      sawThreadName = true;
    if (ph != "X") continue;
    if (ev.at("name").asString() == "on-main") mainTid = ev.at("tid").asInt();
    if (ev.at("name").asString() == "on-worker")
      workerTid = ev.at("tid").asInt();
  }
  EXPECT_TRUE(sawThreadName);
  ASSERT_GE(mainTid, 0);
  ASSERT_GE(workerTid, 0);
  EXPECT_NE(mainTid, workerTid);
}

TEST_F(TraceTest, ClearDropsEventsButKeepsRegistrations) {
  TraceRecorder::global().setState(TraceState::Recording);
  {
    TraceScope span("gone");
  }
  EXPECT_EQ(TraceRecorder::global().eventCount(), 1u);
  TraceRecorder::global().clear();
  EXPECT_EQ(TraceRecorder::global().eventCount(), 0u);
}

} // namespace
} // namespace cawo::obs
