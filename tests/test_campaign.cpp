// The experiment campaign engine (src/exp): JSON writer/parser round
// trips, campaign spec parsing from key=value and JSON text, cross-product
// expansion, the schedule-independent carbon lower bound, end-to-end
// campaign runs with bit-for-bit parity against direct registry solves,
// and the stability of the emitted record schema (golden key list).

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/asap.hpp"
#include "core/carbon_cost.hpp"
#include "exp/campaign.hpp"
#include "exp/campaign_runner.hpp"
#include "exp/json.hpp"
#include "profile/scenario.hpp"
#include "sim/runner.hpp"
#include "solver/registry.hpp"
#include "test_util.hpp"
#include "util/require.hpp"

namespace cawo {
namespace {

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

TEST(Json, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(jsonEscape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, WriterProducesParsableDocuments) {
  std::ostringstream out;
  JsonWriter w(out);
  w.beginObject();
  w.key("text").value("quote \" backslash \\");
  w.key("int").value(std::int64_t{-42});
  w.key("pi").value(3.25);
  w.key("flag").value(true);
  w.key("nothing").null();
  w.key("list");
  w.compactNext();
  w.beginArray();
  w.value(1);
  w.value(2);
  w.endArray();
  w.endObject();

  const JsonValue doc = JsonValue::parse(out.str());
  EXPECT_EQ(doc.at("text").asString(), "quote \" backslash \\");
  EXPECT_EQ(doc.at("int").asInt(), -42);
  EXPECT_DOUBLE_EQ(doc.at("pi").asDouble(), 3.25);
  EXPECT_TRUE(doc.at("flag").asBool());
  EXPECT_TRUE(doc.at("nothing").isNull());
  ASSERT_EQ(doc.at("list").asArray().size(), 2u);
  EXPECT_EQ(doc.at("list").asArray()[1].asInt(), 2);
  // Key order is preserved for schema-stability checks.
  EXPECT_EQ(doc.objectKeys().front(), "text");
  EXPECT_EQ(doc.objectKeys().back(), "list");
}

TEST(Json, ParserRejectsMalformedDocuments) {
  EXPECT_THROW((void)JsonValue::parse("{"), PreconditionError);
  EXPECT_THROW((void)JsonValue::parse("{} trailing"), PreconditionError);
  EXPECT_THROW((void)JsonValue::parse("{\"a\": }"), PreconditionError);
  EXPECT_THROW((void)JsonValue::parse("[1, 2"), PreconditionError);
  EXPECT_THROW((void)JsonValue::parse("\"unterminated"), PreconditionError);
  EXPECT_THROW((void)JsonValue::parse("{\"a\":1,\"a\":2}"), PreconditionError);
}

TEST(Json, NonFiniteDoublesBecomeNull) {
  EXPECT_EQ(jsonNumber(std::nan("")), "null");
  EXPECT_EQ(jsonNumber(1.5), "1.5");
}

// ---------------------------------------------------------------------------
// Campaign spec parsing
// ---------------------------------------------------------------------------

TEST(CampaignSpec, EmptyTextYieldsPaperDefaults) {
  const CampaignSpec spec = parseCampaignText("");
  EXPECT_EQ(spec.families.size(), 1u);
  EXPECT_EQ(spec.scenarios.size(), 4u);
  EXPECT_EQ(spec.deadlineFactors.size(), 4u);
  EXPECT_EQ(spec.algos, "suite");
  EXPECT_EQ(spec.cellCount(), 16u);
}

TEST(CampaignSpec, ParsesKeyValueText) {
  const CampaignSpec spec = parseCampaignText(R"(# comment
name = my-campaign
families         = atacseq, bacass, eager
tasks            = 40, 80
bacass-tasks     = 25
nodes-per-type   = 1, 2
scenarios        = S2, S4
deadline-factors = 1.5, 3.0
seeds            = 1, 1001
intervals        = 8
algos            = ASAP, press*
threads          = 2
)");
  EXPECT_EQ(spec.name, "my-campaign");
  ASSERT_EQ(spec.families.size(), 3u);
  EXPECT_EQ(spec.families[1], WorkflowFamily::Bacass);
  EXPECT_EQ(spec.tasks, (std::vector<int>{40, 80}));
  EXPECT_EQ(spec.bacassTasks, 25);
  EXPECT_EQ(spec.nodesPerType, (std::vector<int>{1, 2}));
  ASSERT_EQ(spec.scenarios.size(), 2u);
  EXPECT_EQ(spec.scenarios[1], "S4");
  EXPECT_EQ(spec.deadlineFactors, (std::vector<double>{1.5, 3.0}));
  EXPECT_EQ(spec.seeds, (std::vector<std::uint64_t>{1, 1001}));
  EXPECT_EQ(spec.numIntervals, 8);
  EXPECT_EQ(spec.algos, "ASAP, press*");
  EXPECT_EQ(spec.threads, 2u);
  // (atacseq: 2 sizes + bacass: 1 + eager: 2) × 2 clusters × 2 seeds
  // × 2 scenarios × 2 factors.
  EXPECT_EQ(spec.cellCount(), 5u * 2 * 2 * 2 * 2);
}

TEST(CampaignSpec, ParsesJsonForm) {
  const CampaignSpec spec = parseCampaignText(R"({
    "name": "json-campaign",
    "families": ["eager"],
    "tasks": [30],
    "scenarios": "all",
    "deadline-factors": [2.0],
    "seeds": [7],
    "algos": "ASAP,slack"
  })");
  EXPECT_EQ(spec.name, "json-campaign");
  ASSERT_EQ(spec.families.size(), 1u);
  EXPECT_EQ(spec.families[0], WorkflowFamily::Eager);
  EXPECT_EQ(spec.tasks, (std::vector<int>{30}));
  EXPECT_EQ(spec.scenarios.size(), 4u);
  EXPECT_EQ(spec.deadlineFactors, (std::vector<double>{2.0}));
  EXPECT_EQ(spec.algos, "ASAP,slack");
}

TEST(CampaignSpec, RejectsBadKeysValuesAndEmptyAxes) {
  CampaignSpec spec;
  EXPECT_THROW(setCampaignKey(spec, "familys", "atacseq"), PreconditionError);
  EXPECT_THROW(setCampaignKey(spec, "families", ""), PreconditionError);
  EXPECT_THROW(setCampaignKey(spec, "families", "nf-core"),
               PreconditionError);
  EXPECT_THROW(setCampaignKey(spec, "tasks", ""), PreconditionError);
  EXPECT_THROW(setCampaignKey(spec, "tasks", "40, banana"),
               PreconditionError);
  EXPECT_THROW(setCampaignKey(spec, "tasks", "0"), PreconditionError);
  EXPECT_THROW(setCampaignKey(spec, "scenarios", "S5"), PreconditionError);
  EXPECT_THROW(setCampaignKey(spec, "deadline-factors", "0.5"),
               PreconditionError);
  // Non-finite factors are rejected at parse time, not mid-run.
  for (const char* value : {"inf", "-inf", "nan", "1e999"}) {
    try {
      setCampaignKey(spec, "deadline-factors", std::string("1.5,") + value);
      ADD_FAILURE() << value << " was accepted";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("is not a finite number"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(setCampaignKey(spec, "intervals", "0"), PreconditionError);
  EXPECT_THROW(parseCampaignText("no equals sign"), PreconditionError);
  EXPECT_THROW(parseCampaignText("= value"), PreconditionError);
  // The axes stayed intact through all the failures.
  EXPECT_EQ(spec.cellCount(), 16u);
}

TEST(CampaignSpec, SelectionStringsResolveThroughTheRegistry) {
  CampaignSpec spec;
  EXPECT_EQ(campaignSolverNames(spec), suiteSolverNames());

  setCampaignKey(spec, "algos", "ASAP,press*");
  const auto names = campaignSolverNames(spec);
  ASSERT_EQ(names.size(), 9u);
  EXPECT_EQ(names.front(), "ASAP");

  setCampaignKey(spec, "algos", "no-such-solver");
  EXPECT_THROW((void)campaignSolverNames(spec), PreconditionError);
}

TEST(CampaignSpec, ExpansionMatchesCellCountAndOrder) {
  CampaignSpec spec;
  setCampaignKey(spec, "families", "atacseq,bacass");
  setCampaignKey(spec, "tasks", "40,80");
  setCampaignKey(spec, "bacass-tasks", "20");
  setCampaignKey(spec, "nodes-per-type", "1,2");
  setCampaignKey(spec, "scenarios", "S1,S3");
  setCampaignKey(spec, "deadline-factors", "1.5,2.0");
  setCampaignKey(spec, "seeds", "1,2");

  const std::vector<InstanceSpec> cells = expandCampaign(spec);
  // atacseq contributes 2 sizes, bacass 1 (override) → 3 × 2 × 2 × 2 × 2.
  EXPECT_EQ(cells.size(), spec.cellCount());
  EXPECT_EQ(cells.size(), 48u);

  // Axis order: family → tasks → cluster → seed → scenario → factor.
  EXPECT_EQ(cells[0].family, WorkflowFamily::Atacseq);
  EXPECT_EQ(cells[0].targetTasks, 40);
  EXPECT_EQ(cells[0].nodesPerType, 1);
  EXPECT_EQ(cells[0].seed, 1u);
  EXPECT_EQ(cells[0].scenario, "S1");
  EXPECT_DOUBLE_EQ(cells[0].deadlineFactor, 1.5);
  EXPECT_DOUBLE_EQ(cells[1].deadlineFactor, 2.0);
  EXPECT_EQ(cells[2].scenario, "S3");
  EXPECT_EQ(cells[4].seed, 2u);
  EXPECT_EQ(cells[8].nodesPerType, 2);
  EXPECT_EQ(cells[16].targetTasks, 80);
  // bacass block uses the override size.
  EXPECT_EQ(cells[32].family, WorkflowFamily::Bacass);
  EXPECT_EQ(cells[32].targetTasks, 20);
  EXPECT_EQ(cells.back().family, WorkflowFamily::Bacass);
}

TEST(CampaignSpec, NameRoundTripsForFamiliesAndScenarios) {
  for (const char* name : {"atacseq", "bacass", "eager", "methylseq"})
    EXPECT_STREQ(familyName(familyFromName(name)), name);
  for (const char* name : {"S1", "S2", "S3", "S4"})
    EXPECT_STREQ(scenarioName(scenarioFromName(name)), name);
  EXPECT_THROW((void)familyFromName("Atacseq"), PreconditionError);
  EXPECT_THROW((void)scenarioFromName("s1"), PreconditionError);
}

// ---------------------------------------------------------------------------
// Carbon lower bound
// ---------------------------------------------------------------------------

TEST(CarbonLowerBound, BoundsTheAsapScheduleOnRealInstances) {
  InstanceSpec spec;
  spec.family = WorkflowFamily::Methylseq;
  spec.targetTasks = 40;
  spec.nodesPerType = 1;
  spec.scenario = "S1";
  spec.deadlineFactor = 1.5;
  spec.numIntervals = 8;
  spec.seed = 3;
  const Instance inst = buildInstance(spec);

  const Cost lb = carbonLowerBound(inst.gc, inst.profile);
  const Cost asapCost =
      evaluateCost(inst.gc, inst.profile, scheduleAsap(inst.gc));
  EXPECT_GE(lb, 0);
  EXPECT_LE(lb, asapCost);
}

TEST(CarbonLowerBound, TightOnStarvedUniformProfiles) {
  // One processor, idle 2 / work 5, three unit tasks; green power 0:
  // every schedule pays idle 2 × horizon plus the 5-per-unit work power
  // for the 3 busy units.
  const EnhancedGraph gc = testing::makeChainGc({1, 1, 1}, 2, 5);
  const PowerProfile starved = PowerProfile::uniform(10, 0);
  EXPECT_EQ(carbonLowerBound(gc, starved), 2 * 10 + 5 * 3);

  // Abundant green power: the bound collapses to zero.
  const PowerProfile green = PowerProfile::uniform(10, 100);
  EXPECT_EQ(carbonLowerBound(gc, green), 0);
}

// ---------------------------------------------------------------------------
// Campaign runs
// ---------------------------------------------------------------------------

CampaignSpec tinySpec() {
  CampaignSpec spec;
  spec.name = "tiny";
  setCampaignKey(spec, "families", "atacseq,eager");
  setCampaignKey(spec, "tasks", "30");
  setCampaignKey(spec, "nodes-per-type", "1");
  setCampaignKey(spec, "scenarios", "S1,S2,S3,S4");
  setCampaignKey(spec, "deadline-factors", "2.0");
  setCampaignKey(spec, "seeds", "5");
  setCampaignKey(spec, "intervals", "8");
  setCampaignKey(spec, "algos", "ASAP,press,pressWR-LS");
  return spec;
}

TEST(CampaignRun, RecordsMatchTheSuiteRunnerBitForBit) {
  const CampaignSpec spec = tinySpec();
  const CampaignOutcome outcome = runCampaign(spec);

  ASSERT_EQ(outcome.numInstances, 8u);
  ASSERT_EQ(outcome.records.size(), 8u * 3);

  // Every cell must match a direct registry solve on a freshly built
  // instance without a shared SolveContext.
  const std::vector<InstanceSpec> cells = expandCampaign(spec);
  const SolverRegistry& registry = SolverRegistry::global();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Instance inst = buildInstance(cells[i]);
    SolveRequest request;
    request.gc = &inst.gc;
    request.profile = &inst.profile;
    request.deadline = inst.deadline;
    request.graph = &inst.graph;
    request.platform = &inst.platform;
    for (std::size_t s = 0; s < 3; ++s) {
      const CampaignRecord& record = outcome.instanceCells(i)[s];
      EXPECT_EQ(record.solver, outcome.solvers[s]);
      const SolveResult expected =
          registry.create(outcome.solvers[s])->solve(request);
      EXPECT_EQ(record.cost, expected.cost)
          << record.instance << " / " << record.solver
          << " diverged from a direct solve";
      EXPECT_TRUE(record.feasible);
      EXPECT_FALSE(record.skipped);
      EXPECT_LE(record.lowerBound, record.cost);
      EXPECT_EQ(record.baselineCost, outcome.instanceCells(i)[0].cost);
    }
  }
}

TEST(CampaignRun, ParallelRunMatchesSerialRun) {
  CampaignSpec serial = tinySpec();
  setCampaignKey(serial, "threads", "1");
  CampaignSpec parallel = tinySpec();
  setCampaignKey(parallel, "threads", "4");

  const CampaignOutcome a = runCampaign(serial);
  const CampaignOutcome b = runCampaign(parallel);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].instance, b.records[i].instance);
    EXPECT_EQ(a.records[i].solver, b.records[i].solver);
    EXPECT_EQ(a.records[i].cost, b.records[i].cost);
  }
}

TEST(CampaignSpec, IntegerValuesAreRangeChecked) {
  CampaignSpec spec;
  // Out-of-int-range sizes must be rejected, never truncated (4294967297
  // would silently wrap to a 1-task workflow).
  EXPECT_THROW(setCampaignKey(spec, "tasks", "4294967297"),
               PreconditionError);
  EXPECT_THROW(setCampaignKey(spec, "nodes-per-type", "99999999999"),
               PreconditionError);
  // Seeds are full uint64: beyond-int values are fine, negatives are not.
  setCampaignKey(spec, "seeds", "99999999999");
  EXPECT_EQ(spec.seeds, (std::vector<std::uint64_t>{99999999999ULL}));
  EXPECT_THROW(setCampaignKey(spec, "seeds", "-3"), PreconditionError);
  EXPECT_THROW(setCampaignKey(spec, "seeds", "99999999999999999999999"),
               PreconditionError);
}

TEST(CampaignRun, SkippedBaselineYieldsNullBaselineCosts) {
  CampaignSpec spec = tinySpec();
  setCampaignKey(spec, "families", "atacseq");
  setCampaignKey(spec, "scenarios", "S2");
  // The multi-processor instance skips "dp" — with it as the *baseline*,
  // the other records must carry no baseline cost (0 would read as a real
  // green-optimum cost) and no ratio.
  setCampaignKey(spec, "algos", "dp,ASAP");
  const CampaignOutcome outcome = runCampaign(spec);
  ASSERT_EQ(outcome.records.size(), 2u);
  EXPECT_TRUE(outcome.records[0].skipped);
  EXPECT_FALSE(outcome.records[1].skipped);
  EXPECT_FALSE(outcome.records[1].hasBaseline);
  EXPECT_TRUE(std::isnan(outcome.records[1].ratioVsBaseline));

  const JsonValue doc = JsonValue::parse(toCampaignJsonString(outcome));
  const auto& records = doc.at("records").asArray();
  EXPECT_TRUE(records[1].at("baseline_cost").isNull());
  EXPECT_TRUE(records[1].at("ratio_vs_baseline").isNull());
  // ASAP ran and won its instance even without a baseline.
  EXPECT_EQ(outcome.summaries[1].wins, 1);
}

TEST(CampaignRun, SkippedSolversYieldSkippedRecords) {
  CampaignSpec spec = tinySpec();
  setCampaignKey(spec, "families", "atacseq");
  setCampaignKey(spec, "scenarios", "S2");
  // "dp" needs a single-processor graph and must be skipped, not fatal.
  setCampaignKey(spec, "algos", "ASAP,dp");
  const CampaignOutcome outcome = runCampaign(spec);
  ASSERT_EQ(outcome.records.size(), 2u);
  EXPECT_FALSE(outcome.records[0].skipped);
  EXPECT_TRUE(outcome.records[1].skipped);
  EXPECT_TRUE(std::isnan(outcome.records[1].ratioVsBaseline));
  ASSERT_EQ(outcome.summaries.size(), 2u);
  EXPECT_EQ(outcome.summaries[1].instances, 0);
  EXPECT_EQ(outcome.numInstances, 1u);
}

TEST(CampaignRun, PhaseSplitAndLocalSearchStatsAreSurfaced) {
  CampaignSpec spec = tinySpec();
  setCampaignKey(spec, "families", "atacseq");
  setCampaignKey(spec, "scenarios", "S1");
  setCampaignKey(spec, "algos", "ASAP,press,pressWR-LS");
  const CampaignOutcome outcome = runCampaign(spec);
  ASSERT_EQ(outcome.records.size(), 3u);
  const CampaignRecord& asap = outcome.records[0];
  const CampaignRecord& greedy = outcome.records[1];
  const CampaignRecord& ls = outcome.records[2];

  // ASAP has no greedy/LS phases; greedy-only variants report the split
  // but no local-search block; -LS variants report both.
  EXPECT_FALSE(asap.hasPhaseSplit);
  EXPECT_FALSE(asap.hasLocalSearch);
  EXPECT_TRUE(greedy.hasPhaseSplit);
  EXPECT_FALSE(greedy.hasLocalSearch);
  EXPECT_TRUE(ls.hasPhaseSplit);
  EXPECT_TRUE(ls.hasLocalSearch);
  EXPECT_GE(ls.lsRounds, 1);
  EXPECT_GE(ls.lsMoves, 0);
  EXPECT_GE(ls.lsInitialCost, ls.lsFinalCost);
  EXPECT_EQ(ls.lsFinalCost, ls.cost)
      << "the local-search exit cost must equal the recorded carbon cost";

  const JsonValue doc = JsonValue::parse(toCampaignJsonString(outcome));
  const auto& records = doc.at("records").asArray();
  EXPECT_TRUE(records[0].at("greedy_ms").isNull());
  EXPECT_TRUE(records[0].at("ls_rounds").isNull());
  EXPECT_FALSE(records[1].at("greedy_ms").isNull());
  EXPECT_TRUE(records[1].at("ls_ms").isNull());
  EXPECT_FALSE(records[2].at("ls_ms").isNull());
  EXPECT_EQ(records[2].at("ls_moves").asInt(), ls.lsMoves);
  EXPECT_EQ(records[2].at("ls_initial_cost").asInt(),
            static_cast<std::int64_t>(ls.lsInitialCost));
}

TEST(CampaignRun, SummariesAggregateRatiosAndWins) {
  const CampaignOutcome outcome = runCampaign(tinySpec());
  ASSERT_EQ(outcome.summaries.size(), 3u);
  const SolverSummary& asap = outcome.summaries[0];
  EXPECT_EQ(asap.solver, "ASAP");
  EXPECT_EQ(asap.instances, 8);
  EXPECT_DOUBLE_EQ(asap.medianRatio, 1.0);

  int wins = 0;
  for (const SolverSummary& s : outcome.summaries) wins += s.wins;
  EXPECT_GE(wins, 8) << "every instance has at least one winner";

  const SolverSummary& best = outcome.summaries[2];
  EXPECT_EQ(best.solver, "pressWR-LS");
  EXPECT_LE(best.medianRatio, 1.0);
  ASSERT_EQ(best.medianRatioByScenario.size(), 4u);
}

// ---------------------------------------------------------------------------
// JSON result schema stability
// ---------------------------------------------------------------------------

TEST(CampaignJson, DocumentRoundTripsThroughTheParser) {
  CampaignSpec spec = tinySpec();
  setCampaignKey(spec, "families", "atacseq");
  setCampaignKey(spec, "scenarios", "S1,S4");
  const CampaignOutcome outcome = runCampaign(spec);

  const JsonValue doc = JsonValue::parse(toCampaignJsonString(outcome));
  EXPECT_EQ(doc.at("schema").asString(), "cawosched-campaign-v1");
  EXPECT_EQ(doc.at("campaign").at("name").asString(), "tiny");
  EXPECT_EQ(doc.at("campaign").at("num_instances").asInt(), 2);

  const auto& records = doc.at("records").asArray();
  ASSERT_EQ(records.size(), outcome.records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].at("cost").asInt(),
              static_cast<std::int64_t>(outcome.records[i].cost));
    EXPECT_EQ(records[i].at("solver").asString(),
              outcome.records[i].solver);
    EXPECT_EQ(records[i].at("feasible").asBool(),
              outcome.records[i].feasible);
  }
  EXPECT_EQ(doc.at("summary").asArray().size(), 3u);
}

// Golden schema: the exact key sequence of a result record. Extending the
// schema is fine (append keys, bump the schema id when renaming) but any
// accidental rename/reorder breaks downstream consumers — this test pins
// it.
TEST(CampaignJson, RecordSchemaIsStable) {
  CampaignSpec spec = tinySpec();
  setCampaignKey(spec, "families", "eager");
  setCampaignKey(spec, "scenarios", "S3");
  setCampaignKey(spec, "algos", "ASAP");
  const CampaignOutcome outcome = runCampaign(spec);

  const JsonValue doc = JsonValue::parse(toCampaignJsonString(outcome));
  const std::vector<std::string> expectedRecordKeys = {
      "instance",      "family",        "tasks",
      "nodes_per_type", "scenario",     "deadline_factor",
      "seed",          "intervals",     "deadline",
      "asap_makespan", "num_nodes",     "instance_hash",
      "solver",        "cost",          "wall_ms",       "lower_bound",
      "baseline_cost", "ratio_vs_baseline", "feasible",
      "proved_optimal", "skipped",      "greedy_ms",
      "ls_ms",         "ls_rounds",     "ls_moves",
      "ls_initial_cost", "ls_final_cost"};
  ASSERT_FALSE(doc.at("records").asArray().empty());
  EXPECT_EQ(doc.at("records").asArray().front().objectKeys(),
            expectedRecordKeys);

  const std::vector<std::string> expectedSummaryKeys = {
      "solver",     "instances",     "wins",
      "median_ratio", "mean_ratio",  "total_wall_ms",
      "median_ratio_by_scenario"};
  EXPECT_EQ(doc.at("summary").asArray().front().objectKeys(),
            expectedSummaryKeys);

  const std::vector<std::string> expectedTopKeys = {"schema", "campaign",
                                                    "records", "summary"};
  EXPECT_EQ(doc.objectKeys(), expectedTopKeys);
}

} // namespace
} // namespace cawo
