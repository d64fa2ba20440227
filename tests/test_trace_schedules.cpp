// The telemetry layer's hard constraint (tracing must never change
// schedules): all 16 CaWoSched variants, run through `runVariant` on one
// shared context with multi-start local search, produce bit-identical
// schedules with the trace recorder Off, Idle and Recording, at
// threads ∈ {1, 8}. Plus a golden-shape check on the recorded trace:
// valid Chrome trace-event JSON whose child spans nest within their
// parents on every lane.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/asap.hpp"
#include "core/cawosched.hpp"
#include "core/solve_context.hpp"
#include "exp/json.hpp"
#include "obs/trace.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace cawo {
namespace {

using obs::TraceRecorder;
using obs::TraceState;
using testing::randomDag;

struct Fixture {
  EnhancedGraph gc;
  PowerProfile profile;
  Time deadline = 0;
};

Fixture makeFixture(std::uint64_t seed) {
  Rng rng(seed);
  Fixture f{randomDag(40, 3, 0.08, rng), PowerProfile{}, 0};
  f.deadline = 2 * asapMakespan(f.gc) + 5;
  f.profile = testing::randomProfile(f.deadline, 12, 2, 14, rng);
  return f;
}

/// Every variant in order on one shared context, as the campaign runner
/// solves an instance's cells. `lsRestarts > 1` so `threads` reaches the
/// local-search restart fan-out.
std::vector<Schedule> runAllVariants(const Fixture& f, unsigned threads) {
  CaWoParams params;
  params.threads = threads;
  params.lsRestarts = 3;
  const SolveContext ctx(f.gc, f.profile, f.deadline);
  std::vector<Schedule> out;
  for (const VariantSpec& spec : allVariants())
    out.push_back(runVariant(ctx, spec, params));
  return out;
}

class TraceScheduleTest : public ::testing::Test {
protected:
  void SetUp() override {
    TraceRecorder::global().setState(TraceState::Off);
    TraceRecorder::global().clear();
  }
  void TearDown() override {
    TraceRecorder::global().setState(TraceState::Off);
    TraceRecorder::global().clear();
  }
};

TEST_F(TraceScheduleTest, SchedulesBitIdenticalAcrossTraceStates) {
  const std::vector<VariantSpec> variants = allVariants();
  ASSERT_EQ(variants.size(), 16u);
  const Fixture f = makeFixture(101);

  // Reference: tracing Off.
  std::vector<std::vector<Schedule>> reference;
  for (const unsigned threads : {1u, 8u})
    reference.push_back(runAllVariants(f, threads));

  for (const TraceState state : {TraceState::Idle, TraceState::Recording}) {
    TraceRecorder::global().clear();
    TraceRecorder::global().setState(state);
    std::size_t t = 0;
    for (const unsigned threads : {1u, 8u}) {
      const std::vector<Schedule> traced = runAllVariants(f, threads);
      ASSERT_EQ(traced.size(), variants.size());
      for (std::size_t i = 0; i < variants.size(); ++i)
        EXPECT_EQ(traced[i].starts(), reference[t][i].starts())
            << "variant " << variants[i].name() << " diverged at threads="
            << threads << " with trace state " << static_cast<int>(state);
      ++t;
    }
    TraceRecorder::global().setState(TraceState::Off);
    if (state == TraceState::Idle)
      EXPECT_EQ(TraceRecorder::global().eventCount(), 0u)
          << "Idle must not store events";
    else
      EXPECT_GT(TraceRecorder::global().eventCount(), 0u)
          << "Recording stored nothing — instrumentation is dead";
  }
}

TEST_F(TraceScheduleTest, RecordedTraceHasGoldenShape) {
  const Fixture f = makeFixture(7);

  TraceRecorder::global().setState(TraceState::Recording);
  (void)runAllVariants(f, 8);
  TraceRecorder::global().setState(TraceState::Off);

  std::ostringstream out;
  TraceRecorder::global().writeChromeTrace(out);
  const JsonValue doc = JsonValue::parse(out.str()); // valid JSON
  EXPECT_EQ(doc.at("displayTimeUnit").asString(), "ms");
  const auto& events = doc.at("traceEvents").asArray();
  ASSERT_FALSE(events.empty());

  // Collect complete events per lane; check envelope fields as we go.
  struct Span {
    double ts, dur;
    std::string name;
  };
  std::map<std::int64_t, std::vector<Span>> lanes;
  bool sawVariantSpan = false, sawGreedy = false;
  for (const JsonValue& ev : events) {
    const std::string ph = ev.at("ph").asString();
    if (ph == "M") continue;
    ASSERT_TRUE(ev.has("pid"));
    ASSERT_TRUE(ev.has("tid"));
    ASSERT_TRUE(ev.has("ts"));
    if (ph != "X") continue;
    ASSERT_TRUE(ev.has("dur"));
    EXPECT_GE(ev.at("dur").asDouble(), 0.0);
    const std::string name = ev.at("name").asString();
    if (name == "solve.variant") sawVariantSpan = true;
    if (name == "greedy") sawGreedy = true;
    lanes[ev.at("tid").asInt()].push_back(
        {ev.at("ts").asDouble(), ev.at("dur").asDouble(), name});
  }
  EXPECT_TRUE(sawVariantSpan);
  EXPECT_TRUE(sawGreedy);

  // Nesting invariant per lane: spans sorted by (ts asc, dur desc) form a
  // containment forest — a span starting inside another must end within
  // it (child ts+dur <= parent ts+dur).
  for (auto& [tid, spans] : lanes) {
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      if (a.ts != b.ts) return a.ts < b.ts;
      return a.dur > b.dur;
    });
    std::vector<const Span*> stack;
    for (const Span& s : spans) {
      while (!stack.empty() &&
             s.ts >= stack.back()->ts + stack.back()->dur - 1e-9)
        stack.pop_back();
      if (!stack.empty()) {
        EXPECT_LE(s.ts + s.dur,
                  stack.back()->ts + stack.back()->dur + 1e-6)
            << "span " << s.name << " overflows its parent "
            << stack.back()->name << " on lane " << tid;
      }
      stack.push_back(&s);
    }
  }

  // The hierarchical summary names the greedy under its variant path.
  std::ostringstream summary;
  TraceRecorder::global().writeSummary(summary);
  EXPECT_NE(summary.str().find("solve.variant/greedy"), std::string::npos);
}

} // namespace
} // namespace cawo
