#include "exp/campaign_runner.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <limits>
#include <numeric>
#include <ostream>
#include <sstream>

#include "core/carbon_cost.hpp"
#include "core/instance_hash.hpp"
#include "core/solve_context.hpp"
#include "exp/json.hpp"
#include "exp/record_json.hpp"
#include "exp/record_sink.hpp"
#include "exp/store.hpp"
#include "exp/summary.hpp"
#include "obs/trace.hpp"
#include "online/replay.hpp"
#include "profile/profile_source.hpp"
#include "sim/table.hpp"
#include "solver/registry.hpp"
#include "util/parallel.hpp"
#include "util/require.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

namespace cawo {

namespace {

constexpr const char* kSchemaId = "cawosched-campaign-v1";

double quietNaN() { return std::numeric_limits<double>::quiet_NaN(); }

/// Copy the per-phase diagnostics the CaWoSched-style adapters publish in
/// the solver stats map into the typed record fields (see
/// docs/formats.md, "Campaign result JSON").
void harvestPhaseStats(const std::map<std::string, std::int64_t>& stats,
                       CampaignRecord& record) {
  const auto find = [&](const char* key, std::int64_t& out) {
    const auto it = stats.find(key);
    if (it == stats.end()) return false;
    out = it->second;
    return true;
  };
  std::int64_t us = 0;
  if (find("greedy-us", us)) {
    record.hasPhaseSplit = true;
    record.greedyMs = static_cast<double>(us) / 1000.0;
  }
  if (find("ls-us", us)) {
    record.hasLocalSearch = true;
    record.lsMs = static_cast<double>(us) / 1000.0;
    find("ls-rounds", record.lsRounds);
    find("ls-moves", record.lsMoves);
    find("ls-initial-cost", record.lsInitialCost);
    find("ls-final-cost", record.lsFinalCost);
  }
}

/// Shared ratio-vs-baseline pass over one instance's records (baseline =
/// the first cell). Used by both the offline and the online cell runners.
void assignBaselineRatios(CampaignRecord* records, std::size_t count) {
  const CampaignRecord& baseline = records[0];
  const bool baselineValid = !baseline.skipped && baseline.feasible;
  for (std::size_t s = 0; s < count; ++s) {
    CampaignRecord& record = records[s];
    if (record.skipped || !baselineValid) continue;
    record.hasBaseline = true;
    record.baselineCost = baseline.cost;
    if (!record.feasible) continue; // the cost of a broken run is noise
    if (baseline.cost > 0) {
      record.ratioVsBaseline = static_cast<double>(record.cost) /
                               static_cast<double>(baseline.cost);
    } else if (record.cost == 0) {
      record.ratioVsBaseline = 1.0; // 0/0: both hit the green optimum
    }
  }
}

/// Solve every selected solver on one built instance into its campaign
/// records. Solvers that do not fit the instance yield skipped records.
void runInstanceCell(const Instance& instance,
                     const std::vector<std::string>& solvers,
                     const SolverOptions& options, CampaignRecord* records) {
  CAWO_REQUIRE(!solvers.empty(), "campaign has no solvers selected");

  // One shared context per instance: every selected solver reuses the
  // memoized initial windows, score orders and refined interval sets.
  const SolveContext context(instance.gc, instance.profile,
                             instance.deadline);

  SolveRequest request;
  request.gc = &instance.gc;
  request.profile = &instance.profile;
  request.deadline = instance.deadline;
  request.graph = &instance.graph;
  request.platform = &instance.platform;
  request.context = &context;
  request.options = options;

  const Cost lowerBound = carbonLowerBound(instance.gc, instance.profile);
  const std::uint64_t hash =
      instanceHash(instance.gc, instance.profile, instance.deadline);

  const SolverRegistry& registry = SolverRegistry::global();
  for (std::size_t s = 0; s < solvers.size(); ++s) {
    CampaignRecord& record = records[s];
    record.spec = instance.spec;
    record.instance = instance.spec.label();
    record.deadline = instance.deadline;
    record.asapMakespanD = instance.asapMakespanD;
    record.numNodes = instance.gc.numNodes();
    record.instanceHash = hash;
    record.lowerBound = lowerBound;
    record.solver = solvers[s];
    record.ratioVsBaseline = quietNaN();

    const SolverPtr solver = registry.create(solvers[s]);
    if (!solverFitsInstance(solver->info(), instance)) {
      record.skipped = true;
      continue;
    }
    obs::TraceScope cellSpan("campaign.cell");
    if (cellSpan.recording()) {
      cellSpan.arg("solver", solvers[s]);
      cellSpan.arg("instance_hash", instanceHashHex(hash));
    }
    const SolveResult solved = solver->solve(request);
    record.cost = solved.cost;
    record.wallMs = solved.wallMs;
    record.feasible = solved.feasible;
    record.provedOptimal = solved.provedOptimal;
    harvestPhaseStats(solved.stats, record);
  }

  // Ratios against the baseline — the first selected solver
  // (conventionally ASAP). Undefined ratios stay NaN → null in JSON.
  assignBaselineRatios(records, solvers.size());
}

/// Replay every (solver, policy) combination on one built instance — the
/// online-mode counterpart of runInstanceCell. The forecast/actual pair is
/// resolved once per instance; the clairvoyant reference is solved once
/// per solver and shared across its policy cells.
void runOnlineInstanceCell(const Instance& instance,
                           const std::vector<std::string>& solvers,
                           const CampaignSpec& spec,
                           const SolverOptions& options,
                           CampaignRecord* records) {
  CAWO_REQUIRE(!solvers.empty(), "campaign has no solvers selected");
  CAWO_REQUIRE(!spec.policies.empty(), "online campaign has no policies");

  // Forecast/actual resolution, once per instance.
  const ReplayProfiles profiles(instance, spec.actual);
  const Cost lowerBound = carbonLowerBound(instance.gc, profiles.actual());
  // The hash is the *planning* instance (forecast profile) — the same
  // workflow replayed under different actuals joins on one hash.
  const std::uint64_t hash =
      instanceHash(instance.gc, instance.profile, instance.deadline);

  const SolverRegistry& registry = SolverRegistry::global();
  const std::size_t P = spec.policies.size();
  for (std::size_t s = 0; s < solvers.size(); ++s) {
    const bool fits =
        solverFitsInstance(registry.create(solvers[s])->info(), instance);

    // One replayOnline call per solver row: the plan and the clairvoyant
    // reference are solved once and shared by its policy cells.
    std::vector<OnlineResult> row;
    if (fits) {
      obs::TraceScope cellSpan("campaign.cell");
      if (cellSpan.recording()) {
        cellSpan.arg("solver", solvers[s]);
        cellSpan.arg("instance_hash", instanceHashHex(hash));
      }
      OnlineOptions onlineOpts;
      onlineOpts.solver = solvers[s];
      onlineOpts.runtimeNoise = spec.runtimeNoise;
      onlineOpts.runtimeSeed = instance.spec.seed ^ 0x0417CEB5ULL;
      onlineOpts.solverOptions = options;
      row = replayOnline(instance, profiles.forecast(), profiles.actual(),
                         onlineOpts, spec.policies);
    }

    for (std::size_t p = 0; p < P; ++p) {
      CampaignRecord& record = records[s * P + p];
      record.spec = instance.spec;
      record.instance = instance.spec.label();
      record.deadline = instance.deadline;
      record.asapMakespanD = instance.asapMakespanD;
      record.numNodes = instance.gc.numNodes();
      record.instanceHash = hash;
      record.lowerBound = lowerBound;
      record.solver = solvers[s];
      record.ratioVsBaseline = quietNaN();
      record.hasOnline = true;
      record.policy = spec.policies[p];
      record.actualScenario = spec.actual;
      record.regretRatio = quietNaN();
      if (!fits) {
        record.skipped = true;
        continue;
      }

      const OnlineResult& online = row[p];
      record.cost = online.actualCost;
      record.wallMs = online.solveWallMs + online.resolveWallMs;
      record.feasible = online.ran && online.deadlineMet;
      record.forecastCost = online.forecastCost;
      record.resolves = static_cast<std::int64_t>(online.resolveCount);
      record.resolvesAccepted =
          static_cast<std::int64_t>(online.resolveAccepted);
      record.resolveWallMs = online.resolveWallMs;
      record.deadlineMet = online.deadlineMet;
      record.finishTime = online.finishTime;
      record.clairvoyantFeasible = online.clairvoyantFeasible && online.ran;
      record.clairvoyantCost = online.clairvoyantCost;
      record.regret = online.regret;
      record.regretRatio = online.regretRatio;
    }
  }
  assignBaselineRatios(records, solvers.size() * P);
}

/// Fail fast, before any instance is built, on a +noise scenario spec
/// together with an explicit actual.
void requireConsistentOnlineSpec(const CampaignSpec& spec) {
  if (!spec.online) return;
  for (const std::string& scenario : spec.scenarios)
    requireForecastWithoutNoise(scenario, spec.actual);
}

/// Build + solve one instance's whole cell group into `records`
/// (length == stride), dispatching on the campaign mode.
void solveInstanceCells(const InstanceSpec& cell, const CampaignSpec& spec,
                        const std::vector<std::string>& solverNames,
                        const std::vector<std::string>& cellLabels,
                        const SolverOptions& options,
                        CampaignRecord* records) {
  obs::TraceScope span("campaign.instance");
  if (span.recording()) span.arg("instance", cell.label());
  const Instance instance = [&] {
    obs::TraceScope build("campaign.build");
    return buildInstance(cell);
  }();
  if (spec.online) {
    runOnlineInstanceCell(instance, solverNames, spec, options, records);
  } else {
    runInstanceCell(instance, cellLabels, options, records);
  }
}

/// The one grid loop: build and solve the `pending` instances on
/// `spec.threads` workers. Each worker hands its instance's cell group to
/// `sink`, then reports progress as (cells done, cells to do).
void solvePending(const CampaignSpec& spec,
                  const std::vector<InstanceSpec>& instances,
                  const std::vector<std::size_t>& pending,
                  const std::vector<std::string>& cellLabels,
                  const SolverOptions& options, RecordSink& sink,
                  const CampaignProgress& progress) {
  const std::vector<std::string> solverNames = campaignSolverNames(spec);
  const std::size_t S = cellLabels.size();
  const std::size_t cellsToDo = pending.size() * S;
  std::atomic<std::size_t> done{0};
  parallelFor(pending.size(), spec.threads, [&](std::size_t k) {
    if (obs::traceRecording()) obs::traceSetThreadName("campaign-worker");
    const std::size_t i = pending[k];
    std::vector<CampaignRecord> group(S);
    solveInstanceCells(instances[i], spec, solverNames, cellLabels, options,
                       group.data());
    sink.appendInstance(i, group.data(), S);
    if (progress) progress(done.fetch_add(S) + S, cellsToDo);
  });
}

} // namespace

std::vector<std::string> campaignDistinctScenarios(const CampaignSpec& spec) {
  std::vector<std::string> out;
  const auto have = [&](const std::string& s) {
    return std::find(out.begin(), out.end(), s) != out.end();
  };
  const auto inAxis = [&](const std::string& s) {
    return std::find(spec.scenarios.begin(), spec.scenarios.end(), s) !=
           spec.scenarios.end();
  };
  // Paper scenarios keep their canonical S1..S4 order (byte-stable with
  // the closed-enum era); other specs follow in first-appearance order.
  for (const std::string& s : paperScenarioNames())
    if (inAxis(s)) out.push_back(s);
  for (const std::string& s : spec.scenarios)
    if (!have(s)) out.push_back(s);
  return out;
}

std::span<const CampaignRecord> CampaignOutcome::instanceCells(
    std::size_t i) const {
  const std::size_t S = solvers.size();
  CAWO_REQUIRE(i < numInstances && S > 0 && records.size() == numInstances * S,
               "instance " + std::to_string(i) + " has no records");
  return {records.data() + i * S, S};
}

CostMatrix toCostMatrix(const CampaignOutcome& outcome,
                        const std::function<bool(const InstanceSpec&)>& keep) {
  CostMatrix m;
  std::span<const CampaignRecord> first; // the first kept instance
  for (std::size_t i = 0; i < outcome.numInstances; ++i) {
    const std::span<const CampaignRecord> cells = outcome.instanceCells(i);
    if (keep && !keep(cells.front().spec)) continue;
    if (m.costs.empty()) {
      first = cells;
      for (std::size_t c = 0; c < cells.size(); ++c)
        if (!cells[c].skipped) m.algorithms.push_back(outcome.solvers[c]);
    }
    std::vector<Cost> row;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      CAWO_REQUIRE(cells[c].skipped == first[c].skipped,
                   "inconsistent algorithm sets across instances");
      if (!cells[c].skipped) row.push_back(cells[c].cost);
    }
    m.costs.push_back(std::move(row));
  }
  CAWO_REQUIRE(!m.costs.empty(), "no results");
  return m;
}

CampaignOutcome runCampaign(const CampaignSpec& spec,
                            const SolverOptions& options,
                            const CampaignProgress& progress) {
  CampaignOutcome outcome;
  outcome.spec = spec;
  outcome.scenarios = campaignDistinctScenarios(spec);
  requireConsistentOnlineSpec(spec);

  // Per-instance cell labels: the plain solver selection offline, the
  // solver × policy cross-product online ("solver @ policy").
  outcome.solvers = campaignCellLabels(spec);
  if (spec.online) outcome.policies = spec.policies;

  const std::vector<InstanceSpec> instances = expandCampaign(spec);
  const std::size_t S = outcome.solvers.size();
  outcome.numInstances = instances.size();
  outcome.records.resize(instances.size() * S);

  std::vector<std::size_t> all(instances.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  MemoryRecordSink sink(outcome.records, S);
  solvePending(spec, instances, all, outcome.solvers, options, sink,
               progress);

  SummaryAccumulator accumulator(outcome.solvers, outcome.scenarios);
  for (std::size_t i = 0; i < instances.size(); ++i)
    accumulator.addInstance(outcome.records.data() + i * S, S);
  outcome.summaries = accumulator.finish();
  return outcome;
}

CampaignRunStats runCampaignToStore(const SolverOptions& options,
                                    CampaignStoreWriter& store,
                                    const CampaignProgress& progress,
                                    std::size_t maxCells) {
  const CampaignSpec& spec = store.spec();
  requireConsistentOnlineSpec(spec);
  const std::vector<InstanceSpec>& instances = store.instances();
  const std::size_t S = store.stride();

  CampaignRunStats stats;
  stats.totalCells = instances.size() * S;
  stats.shardCells = store.shardCells();
  stats.presentBefore = store.presentCells();

  // Resume = set subtraction: of the instances this shard owns, only
  // those with missing cells are built and solved at all.
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < instances.size(); ++i)
    if (store.ownsInstance(i) && !store.instanceDone(i)) pending.push_back(i);
  if (maxCells > 0) {
    const std::size_t cap = (maxCells + S - 1) / S;
    if (pending.size() > cap) {
      pending.resize(cap);
      stats.cappedByMaxCells = true;
    }
  }

  const std::size_t fsyncsBefore = store.fsyncCount();
  WallTimer runTimer;
  solvePending(spec, instances, pending, store.cellLabels(), options, store,
               progress);
  store.flush();

  // After a torn-tail recovery an instance re-solves whole, but the store
  // appends only its missing cells.
  stats.cellsSolved = store.presentCells() - stats.presentBefore;
  stats.instancesSolved = pending.size();
  stats.wallSec = runTimer.elapsedSec();
  stats.fsyncs =
      static_cast<std::int64_t>(store.fsyncCount() - fsyncsBefore);
  if (stats.wallSec > 0) {
    stats.cellsPerSec =
        static_cast<double>(pending.size() * S) / stats.wallSec;
    stats.recordsPerSec =
        static_cast<double>(stats.cellsSolved) / stats.wallSec;
  }
  return stats;
}

namespace {

void writeSummaryEntry(JsonWriter& w,
                       const std::vector<std::string>& scenarios,
                       const SolverSummary& s) {
  w.compactNext();
  w.beginObject();
  w.key("solver").value(s.solver);
  w.key("instances").value(s.instances);
  w.key("wins").value(s.wins);
  if (std::isnan(s.medianRatio)) w.key("median_ratio").null();
  else w.key("median_ratio").value(s.medianRatio);
  if (std::isnan(s.meanRatio)) w.key("mean_ratio").null();
  else w.key("mean_ratio").value(s.meanRatio);
  w.key("total_wall_ms").value(s.totalWallMs);
  w.key("median_ratio_by_scenario");
  w.beginObject();
  for (std::size_t sc = 0; sc < scenarios.size(); ++sc) {
    w.key(scenarios[sc]);
    if (std::isnan(s.medianRatioByScenario[sc])) w.null();
    else w.value(s.medianRatioByScenario[sc]);
  }
  w.endObject();
  w.endObject();
}

void writeCampaignHeader(JsonWriter& w, const CampaignSpec& spec,
                         const std::vector<std::string>& solvers,
                         std::size_t numInstances) {
  w.key("campaign");
  w.beginObject();
  w.key("name").value(spec.name);
  w.key("families");
  w.compactNext();
  w.beginArray();
  for (const WorkflowFamily f : spec.families) w.value(familyName(f));
  w.endArray();
  w.key("tasks");
  w.compactNext();
  w.beginArray();
  for (const int t : spec.tasks) w.value(t);
  w.endArray();
  w.key("bacass_tasks").value(spec.bacassTasks);
  w.key("nodes_per_type");
  w.compactNext();
  w.beginArray();
  for (const int n : spec.nodesPerType) w.value(n);
  w.endArray();
  w.key("scenarios");
  w.compactNext();
  w.beginArray();
  for (const std::string& s : spec.scenarios) w.value(s);
  w.endArray();
  w.key("deadline_factors");
  w.compactNext();
  w.beginArray();
  for (const double f : spec.deadlineFactors) w.value(f);
  w.endArray();
  w.key("seeds");
  w.compactNext();
  w.beginArray();
  for (const std::uint64_t s : spec.seeds) w.value(s);
  w.endArray();
  w.key("intervals").value(spec.numIntervals);
  w.key("algos").value(spec.algos);
  // Online-mode header keys are appended only when active, keeping the
  // offline document bytes stable.
  if (spec.online) {
    w.key("online").value(true);
    if (spec.actual.empty()) w.key("actual").null();
    else w.key("actual").value(spec.actual);
    w.key("policies");
    w.compactNext();
    w.beginArray();
    for (const std::string& p : spec.policies) w.value(p);
    w.endArray();
    w.key("runtime_noise").value(spec.runtimeNoise);
  }
  w.key("solvers");
  w.compactNext();
  w.beginArray();
  for (const std::string& s : solvers) w.value(s);
  w.endArray();
  w.key("num_instances").value(static_cast<std::int64_t>(numInstances));
  w.endObject();
}

} // namespace

void writeCampaignJson(std::ostream& out, const CampaignOutcome& outcome) {
  JsonWriter w(out);
  w.beginObject();
  w.key("schema").value(kSchemaId);
  writeCampaignHeader(w, outcome.spec, outcome.solvers,
                      outcome.numInstances);

  w.key("records");
  w.beginArray();
  for (const CampaignRecord& r : outcome.records) writeCampaignRecord(w, r);
  w.endArray();

  w.key("summary");
  w.beginArray();
  for (const SolverSummary& s : outcome.summaries)
    writeSummaryEntry(w, outcome.scenarios, s);
  w.endArray();

  w.endObject();
  out << '\n';
}

std::string toCampaignJsonString(const CampaignOutcome& outcome) {
  std::ostringstream out;
  writeCampaignJson(out, outcome);
  return out.str();
}

void writeCampaignJsonFile(const std::string& path,
                           const CampaignOutcome& outcome) {
  std::ofstream out(path);
  CAWO_REQUIRE(out.good(), "cannot open result file for writing: " + path);
  writeCampaignJson(out, outcome);
  CAWO_REQUIRE(out.good(), "failed writing result file: " + path);
}

void writeCampaignJsonFromStore(std::ostream& out,
                                CampaignStoreReader& reader) {
  CAWO_REQUIRE(reader.complete(),
               "store is incomplete (" +
                   std::to_string(reader.presentCells()) + " of " +
                   std::to_string(reader.totalCells()) +
                   " cells present) — run the remaining shards/cells before "
                   "exporting a document");
  const CampaignSpec& spec = reader.spec();
  const std::vector<std::string> scenarios = campaignDistinctScenarios(spec);
  SummaryAccumulator accumulator(reader.cellLabels(), scenarios);

  JsonWriter w(out);
  w.beginObject();
  w.key("schema").value(kSchemaId);
  writeCampaignHeader(w, spec, reader.cellLabels(), reader.numInstances());

  // Record lines are spliced in verbatim from the segments — the store's
  // byte contract (record_json) makes them identical to what the legacy
  // writer would have produced; the accumulator sees each instance group
  // in expansion order, so the summary is bit-identical too. Memory stays
  // O(one instance group).
  w.key("records");
  w.beginArray();
  const std::size_t S = reader.stride();
  std::vector<CampaignRecord> group(S);
  for (std::size_t i = 0; i < reader.numInstances(); ++i) {
    for (std::size_t c = 0; c < S; ++c) {
      const std::string line = reader.readCellLine(i, c);
      w.rawValue(line);
      group[c] = parseCampaignRecordLine(line);
    }
    accumulator.addInstance(group.data(), S);
  }
  w.endArray();

  w.key("summary");
  w.beginArray();
  for (const SolverSummary& s : accumulator.finish())
    writeSummaryEntry(w, scenarios, s);
  w.endArray();

  w.endObject();
  out << '\n';
}

void writeCampaignJsonFileFromStore(const std::string& path,
                                    CampaignStoreReader& reader) {
  std::ofstream out(path);
  CAWO_REQUIRE(out.good(), "cannot open result file for writing: " + path);
  writeCampaignJsonFromStore(out, reader);
  CAWO_REQUIRE(out.good(), "failed writing result file: " + path);
}

CampaignOutcome summariseStore(CampaignStoreReader& reader) {
  CAWO_REQUIRE(reader.complete(),
               "store is incomplete (" +
                   std::to_string(reader.presentCells()) + " of " +
                   std::to_string(reader.totalCells()) +
                   " cells present) — a partial sweep has no meaningful "
                   "summary");
  CampaignOutcome outcome;
  outcome.spec = reader.spec();
  outcome.solvers = reader.cellLabels();
  if (outcome.spec.online) outcome.policies = outcome.spec.policies;
  outcome.scenarios = campaignDistinctScenarios(outcome.spec);
  outcome.numInstances = reader.numInstances();

  SummaryAccumulator accumulator(outcome.solvers, outcome.scenarios);
  const std::size_t S = reader.stride();
  std::vector<CampaignRecord> group(S);
  for (std::size_t i = 0; i < reader.numInstances(); ++i) {
    for (std::size_t c = 0; c < S; ++c)
      group[c] = parseCampaignRecordLine(reader.readCellLine(i, c));
    accumulator.addInstance(group.data(), S);
  }
  outcome.summaries = accumulator.finish();
  return outcome;
}

void printCampaignSummary(std::ostream& out, const CampaignOutcome& outcome,
                          bool perScenario) {
  const auto fmt = [](double v) {
    return std::isnan(v) ? std::string("-") : formatFixed(v, 3);
  };

  printHeading(out, "campaign \"" + outcome.spec.name + "\" — " +
                        std::to_string(outcome.numInstances) +
                        " instances × " +
                        std::to_string(outcome.solvers.size()) + " solvers");
  TextTable table({"solver", "instances", "wins", "median ratio",
                   "mean ratio", "total ms"});
  for (const SolverSummary& s : outcome.summaries)
    table.addRow({s.solver, std::to_string(s.instances),
                  std::to_string(s.wins), fmt(s.medianRatio),
                  fmt(s.meanRatio), formatFixed(s.totalWallMs, 1)});
  table.print(out);

  if (!perScenario || outcome.scenarios.empty()) return;
  std::vector<std::string> headers{"solver"};
  for (const std::string& s : outcome.scenarios)
    headers.push_back("median " + s);
  printHeading(out, "median cost ratio vs " + outcome.solvers.front() +
                        " by scenario");
  TextTable byScenario(headers);
  for (const SolverSummary& s : outcome.summaries) {
    std::vector<std::string> row{s.solver};
    for (const double v : s.medianRatioByScenario) row.push_back(fmt(v));
    byScenario.addRow(row);
  }
  byScenario.print(out);
}

} // namespace cawo
