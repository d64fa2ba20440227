// cawosched-cli — schedule a DOT workflow under a green-power profile with
// any solver from the registry, run or query a declarative experiment
// campaign, replay one instance online, or serve scheduling requests.
// Full reference: docs/cli.md.
//
// Each mode is one entry of the command table at the bottom of this file:
// its subcommand word, accepted flags, --help text and body. main() is
// the one driver: it picks the entry, parses its flags, answers --help,
// a listing or a missing required flag, opens the trace session and runs
// the body. Usage errors exit 2, runtime failures exit 1.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>

#include "core/asap.hpp"
#include "core/schedule_io.hpp"
#include "exp/campaign.hpp"
#include "exp/campaign_runner.hpp"
#include "exp/json.hpp"
#include "exp/store.hpp"
#include "exp/summary.hpp"
#include "heft/heft.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "online/policy.hpp"
#include "online/replay.hpp"
#include "online/result_json.hpp"
#include "profile/profile_io.hpp"
#include "profile/profile_source.hpp"
#include "serve/listings.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "sim/table.hpp"
#include "solver/registry.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"
#include "util/progress.hpp"
#include "util/require.hpp"
#include "util/strings.hpp"
#include "workflow/dot_io.hpp"

namespace {

using namespace cawo;

/// --block-size, --ls-radius and --alpha, forwarded only when given: the
/// solvers' own defaults (CaWoParams: 3 and 10) apply otherwise, and
/// bracketed selections like --algo=greenheft[0.25] keep their inline
/// parameter.
SolverOptions tuningOptions(const CliArgs& args) {
  SolverOptions options;
  for (const char* key : {"block-size", "ls-radius"})
    if (args.has(key)) options.setInt(key, args.getInt(key, 0));
  if (args.has("alpha"))
    options.setDouble("alpha", args.getDouble("alpha", 0.0));
  return options;
}

// Default mode: schedule one DOT workflow.

constexpr const char* kScheduleUsage =
    R"(usage: cawosched-cli --workflow=flow.dot [--profile=green.csv] [--algo=name|glob|all]
  [--threads=N] [--deadline-factor=2.0] [--nodes-per-type=2] [--scenario=SPEC]
  [--intervals=24] [--alpha=0.5] [--block-size=3] [--ls-radius=10] [--ls-restarts=N]
  [--ls-seed=N] [--bnb-max-nodes=N] [--bnb-time-limit=SEC]
  [--out=schedule.csv] [--gantt] [--seed=1]
  cawosched-cli --list-algos | --list-scenarios
subcommands:
  campaign  run a declarative experiment campaign (see campaign --help)
  query     filter/summarise a campaign result store (see query --help)
  replay    online forecast-vs-actual execution replay (see replay --help,
            replay --list-policies)
  serve     long-running scheduler daemon speaking newline-delimited JSON
            over stdin/stdout and a local socket (see serve --help)
SPEC is any registered profile source, e.g. S1, duck, sine:period=24,amp=0.5,
trace:grid.csv,repeat=1 — see --list-scenarios.
--trace=FILE writes a Perfetto-loadable Chrome trace of the solve;
--trace-summary prints a per-span rollup to stderr.
)";

/// Outcome of one solver run (or the reason it was skipped).
struct CliRun {
  std::string name;
  bool ran = false;
  std::string error;
  SolveResult result;
};

/// HEFT-map the workflow onto a Table 1 cluster, build the enhanced
/// graph, run every selected solver against the profile, print the
/// diagnostics table and optionally export the cheapest schedule.
int runSchedule(const CliArgs& args) {
  // buildInstance's rule, which this mode's DOT path bypasses.
  const double factor = args.getDouble("deadline-factor", 2.0);
  if (!(factor >= 1.0))
    throw UsageError(
        "deadline factor below 1.0 is infeasible by definition of D");
  const TaskGraph workflow = readDotFile(args.getString("workflow", ""));
  const Platform cluster = Platform::scaled(
      static_cast<int>(args.getInt("nodes-per-type", 2)));
  const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 1));

  // Fixed mapping and ordering from plain HEFT; carbon-aware mapping is
  // a solver ("greenheft") rather than a CLI mode.
  const HeftResult mapped = runHeft(workflow, cluster);
  LinkPowerOptions linkPower;
  linkPower.seed = seed;
  const EnhancedGraph gc = EnhancedGraph::build(
      workflow, cluster, mapped.mapping, linkPower, &mapped.startTimes);
  const Time d = asapMakespan(gc);
  const double scaled = factor * static_cast<double>(d);
  requireDeadlineInRange(std::floor(scaled) + 1.0, factor, d);
  const auto deadline = static_cast<Time>(scaled) + 1;

  // Power profile covering the deadline.
  PowerProfile profile;
  if (args.has("profile")) {
    profile = readProfileCsvFile(args.getString("profile", ""));
    CAWO_REQUIRE(profile.horizon() >= deadline,
                 "profile horizon " + std::to_string(profile.horizon()) +
                     " does not cover the deadline " +
                     std::to_string(deadline) +
                     " — extend the CSV or lower --deadline-factor");
  } else {
    Power sumWork = 0;
    for (ProcId p = 0; p < gc.numProcs(); ++p) sumWork += gc.workPower(p);
    ProfileRequest preq;
    preq.horizon = deadline;
    preq.sumIdle = gc.totalIdlePower();
    preq.sumWork = sumWork;
    preq.numIntervals = static_cast<int>(args.getInt("intervals", 24));
    preq.seed = seed;
    profile = generateProfile(args.getString("scenario", "S1"), preq);
  }

  const SolverRegistry& registry = SolverRegistry::global();
  const std::vector<std::string> names =
      registry.select(args.getString("algo", "pressWR-LS"));

  SolverOptions options = tuningOptions(args);
  if (args.has("ls-restarts"))
    options.setInt("ls-restarts", args.getInt("ls-restarts", 1));
  if (args.has("ls-seed"))
    options.setInt("ls-seed", args.getInt("ls-seed", 0));
  if (args.has("bnb-max-nodes"))
    options.setInt("max-nodes", args.getInt("bnb-max-nodes", 0));
  if (args.has("bnb-time-limit"))
    options.setDouble("time-limit-sec",
                      args.getDouble("bnb-time-limit", 120.0));
  options.setInt("link-seed", static_cast<std::int64_t>(seed));

  SolveRequest request;
  request.gc = &gc;
  request.profile = &profile;
  request.deadline = deadline;
  request.graph = &workflow;
  request.platform = &cluster;
  request.options = options;

  // Run the selection, optionally across threads (0 = hardware). Solvers
  // are independent and deterministic, so the parallelism only affects
  // wall time, never results; each solve runs on its worker's thread.
  std::vector<CliRun> runs(names.size());
  const unsigned threads = threadsFromArgs(args, "threads", 1);
  parallelFor(names.size(), threads, [&](std::size_t i) {
    runs[i].name = names[i];
    try {
      runs[i].result = registry.create(names[i])->solve(request);
      runs[i].ran = true;
    } catch (const std::exception& e) {
      runs[i].error = e.what();
    }
  });

  // Reference cost for the ratio column: the selection's own ASAP run if
  // present, otherwise a dedicated baseline solve.
  const Cost asapCost = [&]() {
    for (const CliRun& run : runs)
      if (run.name == "ASAP" && run.ran) return run.result.cost;
    return registry.create("ASAP")->solve(request).cost;
  }();

  std::cout << "workflow      : " << workflow.numTasks() << " tasks, "
            << gc.numNodes() - workflow.numTasks()
            << " communication tasks\n"
            << "cluster       : " << cluster.numProcessors()
            << " compute nodes, " << gc.numLinks() << " active links\n"
            << "ASAP makespan : " << d << "  deadline: " << deadline
            << "\n\n";

  TextTable table({"solver", "carbon cost", "vs ASAP", "wall ms", "optimal"});
  for (const CliRun& run : runs) {
    if (!run.ran) {
      table.addRow({run.name, "-", "-", "-", "skipped"});
      continue;
    }
    const SolveResult& r = run.result;
    std::string ratio = "-";
    if (asapCost > 0)
      ratio = formatFixed(
          static_cast<double>(r.cost) / static_cast<double>(asapCost), 3);
    table.addRow({run.name, std::to_string(r.cost), ratio,
                  formatFixed(r.wallMs, 2),
                  r.provedOptimal ? "proved" : "-"});
  }
  table.print(std::cout);
  for (const CliRun& run : runs)
    if (!run.ran)
      std::cout << "note: " << run.name << " skipped — " << run.error
                << "\n";

  // Export the cheapest feasible schedule. A re-mapping solver's schedule
  // refers to its own enhanced graph and deadline, so the export uses the
  // run's effective graph.
  const CliRun* best = nullptr;
  for (const CliRun& run : runs) {
    if (!run.ran || !run.result.feasible) continue;
    if (best == nullptr || run.result.cost < best->result.cost) best = &run;
  }
  const std::string out = args.getString("out", "");
  if (!out.empty() || args.has("gantt"))
    CAWO_REQUIRE(best != nullptr,
                 "no feasible schedule to write — every selected solver "
                 "failed or was skipped");
  if (best != nullptr) {
    const EnhancedGraph& bestGc =
        best->result.remappedGc ? *best->result.remappedGc : gc;
    if (!out.empty()) {
      writeScheduleCsvFile(out, bestGc, best->result.schedule, &workflow);
      std::cout << "\nschedule of " << best->name << " written to " << out
                << (best->result.remappedGc ? " (re-mapped graph)" : "")
                << "\n";
    }
    if (args.has("gantt")) {
      std::cout << "\nGantt (" << best->name << "):\n";
      printGantt(std::cout, bestGc, best->result.schedule,
                 best->result.effectiveDeadline);
    }
  }
  return 0;
}

// campaign: run a declarative experiment campaign, in memory or into a
// sharded result store.

constexpr const char* kCampaignUsage =
    R"(usage: cawosched-cli campaign [--campaign=<file>] [--out=results.json] [--summary]
  [--threads=N] [--quiet] [--name=label] [--families=atacseq,eager,...]
  [--tasks=a,b] [--bacass-tasks=N] [--nodes-per-type=a,b] [--scenarios=SPEC,...|all]
  [--deadline-factors=1.5,2.0] [--seeds=a,b] [--intervals=J] [--algos=SEL]
  [--block-size=3] [--ls-radius=10] [--online=1] [--actual=SPEC]
  [--policies=SPEC,...] [--runtime-noise=A]
  [--store=DIR] [--shard=i/N] [--resume] [--group-commit=64] [--max-cells=N]
With --online=1 every (instance, solver, policy) cell runs through the online
replay engine (see `cawosched-cli replay --help`).
The campaign file holds the same keys as the flags (key = value lines or a JSON
object, see docs/formats.md); flags override the file. The scenarios axis takes
any registered profile spec (--list-scenarios), e.g. S1,sine:period=24,amp=0.5,duck.
With --store records stream into a sharded, resumable on-disk result store
instead of RAM: --shard=i/N partitions the grid across N independent processes,
--resume completes an interrupted run (only missing cells are solved), and
`cawosched-cli query` filters the result (see docs/cli.md).
--trace=FILE writes a Perfetto-loadable Chrome trace of the run;
--trace-summary prints a per-span rollup to stderr (docs/observability.md).
)";

/// The store-backed run's options: `--shard=i/N` (0-based index, total
/// count), --resume and --group-commit.
StoreOptions storeOptionsFromArgs(const CliArgs& args) {
  StoreOptions options;
  options.resume = args.has("resume");
  options.groupCommit =
      static_cast<std::size_t>(args.getInt("group-commit", 64));
  if (!args.has("shard")) return options;
  const std::string value = args.getString("shard", "");
  const std::string shape =
      "--shard wants i/N (0-based), e.g. --shard=0/4 — got \"" + value + "\"";
  const std::vector<std::string> parts = split(value, '/');
  if (parts.size() != 2) throw UsageError(shape);
  std::int64_t index = 0;
  std::int64_t count = 0;
  try {
    index = parseInt64Strict("--shard", std::string(trim(parts[0])));
    count = parseInt64Strict("--shard", std::string(trim(parts[1])));
  } catch (const PreconditionError&) {
    throw UsageError(shape);
  }
  if (index < 0 || count < 1 || index >= count)
    throw UsageError("--shard=" + value +
                     ": index must be 0-based and below the shard count");
  options.shardIndex = static_cast<std::size_t>(index);
  options.shardCount = static_cast<std::size_t>(count);
  return options;
}

/// Print the summary and, with --out, write the campaign document through
/// `writeJson(path)`; `records` is the document's record count.
void reportCampaign(const CliArgs& args, const CampaignOutcome& outcome,
                    std::size_t records,
                    const std::function<void(const std::string&)>& writeJson) {
  const bool quiet = args.has("quiet");
  if (!quiet || !args.has("out"))
    printCampaignSummary(std::cout, outcome, args.has("summary"));
  if (!args.has("out")) return;
  const std::string out = args.getString("out", "");
  writeJson(out);
  if (!quiet)
    std::cout << "\n" << records << " JSON records written to " << out
              << "\n";
}

/// Stream records into one shard of the result store, then summarise
/// (and optionally export) the merged store if every shard is complete.
int runCampaignToStoreCommand(const CliArgs& args,
                              const StoreOptions& storeOptions,
                              const CampaignSpec& spec,
                              const SolverOptions& options) {
  const bool quiet = args.has("quiet");
  const std::string dir = args.getString("store", "");
  CampaignStoreWriter store(dir, spec, storeOptions);
  // Multi-process sweeps: label this shard's trace lane so merged traces
  // show the shards side by side (pid 1 is the unsharded default).
  if (store.shardCount() > 1)
    obs::TraceRecorder::global().setProcess(
        static_cast<int>(store.shardIndex()) + 1,
        "cawosched shard " + std::to_string(store.shardIndex()) + "/" +
            std::to_string(store.shardCount()));
  if (!quiet) {
    std::cerr << "store: " << dir << " — shard " << store.shardIndex()
              << "/" << store.shardCount() << " owns " << store.shardCells()
              << " cells, " << store.presentCells() << " already present\n";
    const StoreRecovery& rec = store.recovery();
    if (rec.recoveredCells || rec.truncatedBytes || rec.droppedIndexLines)
      std::cerr << "store: recovery re-indexed " << rec.recoveredCells
                << " cells, dropped " << rec.droppedIndexLines
                << " index lines and " << rec.truncatedBytes
                << " torn segment bytes\n";
  }

  ProgressMeter meter(!quiet);
  const CampaignRunStats stats = runCampaignToStore(
      options, store, std::ref(meter),
      static_cast<std::size_t>(args.getInt("max-cells", 0)));
  if (!quiet) {
    std::cerr << "shard " << store.shardIndex() << "/" << store.shardCount()
              << ": solved " << stats.cellsSolved << " cells ("
              << stats.instancesSolved << " instances), "
              << stats.presentBefore << " were already durable";
    if (stats.cappedByMaxCells) std::cerr << " [capped by --max-cells]";
    std::cerr << "\n";
    if (stats.wallSec > 0.0)
      std::cerr << "throughput: " << formatFixed(stats.cellsPerSec, 1)
                << " cells/s, " << formatFixed(stats.recordsPerSec, 1)
                << " records/s durable, " << stats.fsyncs << " fsyncs in "
                << formatFixed(stats.wallSec, 2) << " s\n";
  }
  store.flush();

  CampaignStoreReader reader(dir);
  if (!reader.complete()) {
    if (!quiet)
      std::cout << "store incomplete: " << reader.presentCells() << "/"
                << reader.totalCells() << " cells present — run the "
                << "remaining shards (or --resume interrupted ones); "
                << "--out/--summary apply once complete\n";
    return 0;
  }
  reportCampaign(args, summariseStore(reader), reader.totalCells(),
                 [&](const std::string& out) {
                   writeCampaignJsonFileFromStore(out, reader);
                 });
  return 0;
}

int runCampaignCommand(const CliArgs& args) {
  CampaignSpec spec;
  if (args.has("campaign"))
    spec = parseCampaignFile(args.getString("campaign", ""));
  // Axis flags override the file: every flag funnels through the same
  // setCampaignKey vocabulary as the file keys.
  for (const char* key :
       {"name", "families", "tasks", "bacass-tasks", "nodes-per-type",
        "scenarios", "deadline-factors", "seeds", "intervals", "algos",
        "threads", "online", "actual", "policies", "runtime-noise"}) {
    if (args.has(key)) setCampaignKey(spec, key, args.getString(key, ""));
  }
  const SolverOptions options = tuningOptions(args);

  const bool toStore = args.has("store");
  for (const char* storeOnly :
       {"shard", "resume", "group-commit", "max-cells"})
    if (!toStore && args.has(storeOnly))
      throw UsageError(std::string("--") + storeOnly +
                       " needs --store=DIR (the in-memory path has no "
                       "shards or resume)");
  if (toStore && args.getString("store", "").empty())
    throw UsageError("--store wants a directory path");
  const StoreOptions storeOptions = storeOptionsFromArgs(args);

  const bool quiet = args.has("quiet");
  const std::vector<std::string> solvers = campaignSolverNames(spec);
  if (!quiet) {
    std::cout << "campaign \"" << spec.name << "\": " << spec.cellCount()
              << " instances × " << solvers.size() << " solvers";
    if (spec.online)
      std::cout << " × " << spec.policies.size() << " policies (online)";
    std::cout << " ("
              << spec.cellCount() * solvers.size() * spec.policyCount()
              << " cells)\n";
  }
  if (toStore)
    return runCampaignToStoreCommand(args, storeOptions, spec, options);

  ProgressMeter meter(!quiet);
  const CampaignOutcome outcome = runCampaign(spec, options, std::ref(meter));
  reportCampaign(args, outcome, outcome.records.size(),
                 [&](const std::string& out) {
                   writeCampaignJsonFile(out, outcome);
                 });
  return 0;
}

// query: filter and summarise a campaign result store without loading it
// into memory.

constexpr const char* kQueryUsage =
    R"(usage: cawosched-cli query --store=DIR [--solvers=GLOB,...]
  [--scenarios=SPEC,...] [--families=a,b] [--min-tasks=N] [--max-tasks=N]
  [--deadline-factors=a,b] [--seeds=a,b] [--instance-hash=HEX]
  [--feasible-only] [--records[=FILE]] [--summary] [--count] [--quiet]
Streams a campaign result store (campaign --store=DIR) through the filters in
merged instance order. --records emits the matching record lines (JSONL) to
stdout or FILE; --summary prints the per-solver aggregate over the matches;
--count prints only the match count. --solvers takes the same glob syntax as
--algos; online stores match the full "solver @ policy" cell label.
)";

int runQueryCommand(const CliArgs& args) {
  CampaignStoreReader reader(args.getString("store", ""));

  StoreQuery query;
  if (args.has("solvers"))
    query.solvers = splitSpecList(args.getString("solvers", ""));
  if (args.has("scenarios"))
    query.scenarios = splitSpecList(args.getString("scenarios", ""));
  if (args.has("families"))
    for (const std::string& f : split(args.getString("families", ""), ','))
      query.families.push_back(std::string(trim(f)));
  query.minTasks = static_cast<int>(args.getInt("min-tasks", 0));
  if (args.has("max-tasks"))
    query.maxTasks = static_cast<int>(args.getInt("max-tasks", 0));
  if (args.has("deadline-factors"))
    for (const std::string& f :
         split(args.getString("deadline-factors", ""), ','))
      query.deadlineFactors.push_back(
          parseDoubleStrict("--deadline-factors", std::string(trim(f))));
  if (args.has("seeds"))
    for (const std::string& s : split(args.getString("seeds", ""), ','))
      query.seeds.push_back(
          parseUint64Strict("--seeds", std::string(trim(s))));
  query.instanceHash = args.getString("instance-hash", "");
  query.feasibleOnly = args.has("feasible-only");

  const bool quiet = args.has("quiet");
  const bool wantSummary = args.has("summary");
  const bool wantRecords = args.has("records");
  const bool wantCount = args.has("count");

  // --records destination: stdout for the bare flag, else the given file.
  // CliArgs stores bare boolean flags as "1", so that value means stdout.
  std::ofstream recordFile;
  std::ostream* recordOut = nullptr;
  std::string recordPath = args.getString("records", "");
  if (recordPath == "1") recordPath.clear();
  if (wantRecords) {
    if (recordPath.empty()) {
      recordOut = &std::cout;
    } else {
      recordFile.open(recordPath);
      CAWO_REQUIRE(recordFile.good(),
                   "cannot open record file for writing: " + recordPath);
      recordOut = &recordFile;
    }
  }

  // The summary view feeds matched cells into the shared accumulator,
  // one full-width group per instance with unmatched cells standing in
  // as skipped records — "wins" then means wins *within the query*.
  const std::vector<std::string>& labels = reader.cellLabels();
  std::vector<std::size_t> labelPos; // cell index → position, or npos
  std::vector<std::string> matchedLabels;
  for (std::size_t c = 0; c < labels.size(); ++c) {
    bool match = query.solvers.empty();
    for (const std::string& glob : query.solvers)
      if (globMatch(glob, labels[c])) { match = true; break; }
    labelPos.push_back(match ? matchedLabels.size()
                             : std::numeric_limits<std::size_t>::max());
    if (match) matchedLabels.push_back(labels[c]);
  }
  SummaryAccumulator accumulator(matchedLabels,
                                 campaignDistinctScenarios(reader.spec()));
  std::vector<CampaignRecord> group(matchedLabels.size());
  for (CampaignRecord& r : group) r.skipped = true;
  std::size_t groupInstance = std::numeric_limits<std::size_t>::max();
  std::size_t groupMatches = 0;
  const auto flushGroup = [&]() {
    if (groupMatches == 0) return;
    accumulator.addInstance(group.data(), group.size());
    for (CampaignRecord& r : group) r = CampaignRecord{};
    for (CampaignRecord& r : group) r.skipped = true;
    groupMatches = 0;
  };

  StoreQueryFn consumer;
  if (wantRecords || wantSummary) {
    consumer = [&](std::size_t instance, std::size_t cell,
                   const CampaignRecord& record, const std::string& line) {
      if (recordOut) *recordOut << line << '\n';
      if (!wantSummary) return;
      if (instance != groupInstance) {
        flushGroup();
        groupInstance = instance;
      }
      group[labelPos[cell]] = record;
      ++groupMatches;
    };
  }
  const std::size_t matched = queryStore(reader, query, consumer);
  flushGroup();
  if (recordOut) {
    recordOut->flush();
    CAWO_REQUIRE(recordOut->good(),
                 "failed writing record file: " + recordPath);
  }

  if (wantCount) {
    std::cout << matched << "\n";
    return 0;
  }
  // Status goes to stderr so `--records` piped from stdout stays pure
  // JSONL and `--summary` output stays machine-diffable.
  if (!quiet)
    std::cerr << "matched " << matched << " of " << reader.presentCells()
              << " present cells (" << reader.totalCells() << " total, "
              << reader.shardCount() << " shard"
              << (reader.shardCount() == 1 ? "" : "s") << ")\n";
  if (wantSummary) {
    if (matchedLabels.empty()) {
      std::cout << "no cell label matches --solvers — nothing to "
                   "summarise\n";
    } else {
      CampaignOutcome view;
      view.spec = reader.spec();
      view.spec.name = reader.spec().name + " [query]";
      view.solvers = matchedLabels;
      view.scenarios = accumulator.scenarios();
      view.numInstances = reader.numInstances();
      view.summaries = accumulator.finish();
      printCampaignSummary(std::cout, view, true);
    }
  }
  if (!quiet && recordOut == &recordFile && !recordPath.empty())
    std::cout << matched << " record lines written to " << recordPath
              << "\n";
  return 0;
}

// replay: plan one instance against the forecast, bill it against the
// actual, and compare rescheduling policies.

constexpr const char* kReplayUsage =
    R"(usage: cawosched-cli replay [--list-policies]
  [--family=atacseq] [--tasks=60] [--nodes-per-type=2] [--intervals=24]
  [--deadline-factor=2.0] [--seed=1] [--forecast=SPEC] [--actual=SPEC]
  [--policy=SPEC,...] [--algo=NAME] [--runtime-noise=A] [--runtime-seed=N]
  [--block-size=3] [--ls-radius=10] [--alpha=0.5] [--out=replay.json]
The solver plans against --forecast (any profile spec; its +noise modifier is
read as forecast error) and execution is billed against --actual (defaults to
the forecast's noisy counterpart). Each --policy runs one replay; see
--list-policies and docs/cli.md for a walkthrough.
--trace=FILE / --trace-summary record per-event and per-re-solve spans
(docs/observability.md).
)";

int runReplayCommand(const CliArgs& args) {
  InstanceSpec spec;
  spec.family = familyFromName(args.getString("family", "atacseq"));
  spec.targetTasks = static_cast<int>(args.getInt("tasks", 60));
  spec.nodesPerType = static_cast<int>(args.getInt("nodes-per-type", 2));
  spec.numIntervals = static_cast<int>(args.getInt("intervals", 24));
  spec.deadlineFactor = args.getDouble("deadline-factor", 2.0);
  spec.seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
  spec.scenario = args.getString("forecast", "S1");
  const std::string actualSpec = args.getString("actual", "");

  const std::vector<std::string> policies =
      splitSpecList(args.getString("policy", "static"));
  CAWO_REQUIRE(!policies.empty(), "no rescheduling policy given");
  for (const std::string& policy : policies)
    (void)ReschedulePolicyRegistry::global().resolve(policy);

  OnlineOptions opts;
  opts.solver = args.getString("algo", "pressWR-LS");
  opts.runtimeNoise = args.getDouble("runtime-noise", 0.0);
  opts.runtimeSeed =
      static_cast<std::uint64_t>(args.getInt("runtime-seed", 1));
  opts.solverOptions = tuningOptions(args);

  const Instance inst = buildInstance(spec);
  std::cout << "instance      : " << inst.spec.label() << " ("
            << inst.gc.numNodes() << " enhanced nodes)\n"
            << "ASAP makespan : " << inst.asapMakespanD
            << "  deadline: " << inst.deadline << "\n"
            << "forecast      : " << spec.scenario << "\n"
            << "actual        : "
            << (actualSpec.empty() ? spec.scenario + " (noise pair)"
                                   : actualSpec)
            << "   runtime noise: " << opts.runtimeNoise << "\n"
            << "solver        : " << opts.solver << "\n\n";

  const std::vector<OnlineResult> results =
      replayOnline(inst, actualSpec, opts, policies);

  TextTable table({"policy", "actual cost", "plan cost", "clairvoyant",
                   "regret", "re-solves", "resolve ms", "deadline"});
  for (const OnlineResult& r : results) {
    if (!r.ran) {
      table.addRow({r.policy, "-", "-", "-", "-", "-", "-", "failed"});
      continue;
    }
    table.addRow(
        {r.policy, std::to_string(r.actualCost),
         std::to_string(r.forecastCost),
         r.clairvoyantFeasible ? std::to_string(r.clairvoyantCost) : "-",
         r.clairvoyantFeasible ? std::to_string(r.regret) : "-",
         std::to_string(r.resolveCount) + " (" +
             std::to_string(r.resolveAccepted) + " ok)",
         formatFixed(r.resolveWallMs, 2), r.deadlineMet ? "met" : "MISSED"});
  }
  table.print(std::cout);
  for (const OnlineResult& r : results)
    if (!r.ran)
      std::cout << "note: " << r.policy << " failed — " << r.error << "\n";

  if (args.has("out")) {
    const std::string out = args.getString("out", "");
    std::ofstream file(out);
    CAWO_REQUIRE(file.good(), "cannot open result file for writing: " + out);
    JsonWriter w(file);
    w.beginObject();
    w.key("schema").value("cawosched-replay-v1");
    w.key("instance").value(inst.spec.label());
    w.key("solver").value(opts.solver);
    w.key("forecast").value(spec.scenario);
    if (actualSpec.empty()) w.key("actual").null();
    else w.key("actual").value(actualSpec);
    w.key("runtime_noise").value(opts.runtimeNoise);
    w.key("deadline").value(static_cast<std::int64_t>(inst.deadline));
    w.key("records");
    w.beginArray();
    for (const OnlineResult& r : results) {
      w.compactNext();
      w.beginObject();
      w.key("policy").value(r.policy);
      w.key("ran").value(r.ran);
      if (r.ran) writeOnlineResultFields(w, r);
      w.endObject();
    }
    w.endArray();
    w.endObject();
    file << '\n';
    CAWO_REQUIRE(file.good(), "failed writing result file: " + out);
    std::cout << "\nreplay records written to " << out << "\n";
  }
  // A run where any replay failed must not read as success to scripts/CI.
  for (const OnlineResult& r : results)
    if (!r.ran) return 1;
  return 0;
}

// serve: the scheduler-as-a-service daemon, speaking cawosched-serve-v1
// newline-delimited JSON over stdin/stdout and, with --port, a loopback
// TCP socket too.

constexpr const char* kServeUsage =
    R"(usage: cawosched-cli serve [--port=N] [--workers=N]
  [--queue-capacity=64] [--cache-capacity=16] [--default-timeout-ms=0]
  [--max-request-bytes=1048576] [--block-size=3] [--ls-radius=10] [--quiet]
--workers sizes the request pool (0 = hardware).
Long-running scheduler daemon: one JSON request per line on stdin, one JSON
response per line on stdout (cawosched-serve-v1 — kinds: solve, replay, list,
stats, shutdown; see docs/formats.md). With --port the same protocol is also
served on 127.0.0.1:N (0 = ephemeral; the bound port is announced on stderr).
The daemon exits on a shutdown request, or on stdin EOF when no --port is
given. Repeated instances hit an LRU SolveContext cache (watch the `stats`
request's cache_hits). Diagnostics go to stderr; stdout carries protocol
bytes only.
--trace=FILE writes per-request span trees (admission, queue wait, cache
acquire, solve, respond) on exit; --trace-summary prints the rollup
(docs/observability.md).
)";

/// A size or time flag of serve: `fallback` when absent, a UsageError when
/// negative (the unsigned plumbing would wrap it into a huge value).
std::int64_t nonNegativeFlag(const CliArgs& args, const std::string& name,
                             std::int64_t fallback) {
  const std::int64_t value = args.getInt(name, fallback);
  if (value < 0)
    throw UsageError("flag --" + name + " must be >= 0, got " +
                     std::to_string(value));
  return value;
}

int runServeCommand(const CliArgs& args) {
  ServeOptions options;
  options.workers = threadsFromArgs(args, "workers", 0);
  options.queueCapacity =
      static_cast<std::size_t>(nonNegativeFlag(args, "queue-capacity", 64));
  options.cacheCapacity =
      static_cast<std::size_t>(nonNegativeFlag(args, "cache-capacity", 16));
  options.defaultTimeoutMs = nonNegativeFlag(args, "default-timeout-ms", 0);
  options.maxRequestBytes = static_cast<std::size_t>(
      nonNegativeFlag(args, "max-request-bytes", 1 << 20));
  const std::int64_t port = args.getInt("port", 0);
  if (port < 0 || port > 65535)
    throw UsageError("flag --port must be in [0, 65535], got " +
                     std::to_string(port));
  options.solverDefaults = tuningOptions(args);

  ServeServer server(options);
  std::unique_ptr<TcpServeListener> listener;
  if (args.has("port"))
    listener = std::make_unique<TcpServeListener>(
        server, static_cast<std::uint16_t>(port));

  // Everything human goes to stderr — stdout is protocol bytes only.
  if (!args.has("quiet")) {
    const ServeStats s = server.stats();
    std::cerr << "cawosched-serve: " << s.workers
              << " workers, queue capacity " << s.queueCapacity
              << ", context cache " << options.cacheCapacity << "\n";
    if (listener)
      std::cerr << "cawosched-serve: listening on 127.0.0.1:"
                << listener->port() << "\n";
    std::cerr << "cawosched-serve: ready\n";
  }

  runStdioServe(server, std::cin, std::cout);
  // stdin is done. With a socket the daemon lives until a shutdown
  // request arrives (from either transport); stdio-only EOF means done.
  if (listener) server.waitUntilStopping();
  server.requestStop();
  server.drain();
  if (listener) listener->stop();

  if (!args.has("quiet")) {
    const ServeStats s = server.stats();
    std::cerr << "cawosched-serve: exiting — " << s.received
              << " requests, " << s.completed << " completed, " << s.failed
              << " failed, " << s.rejectedQueueFull << " rejected, "
              << s.timeouts << " timed out (cache: " << s.cache.hits
              << " hits / " << s.cache.misses << " misses)\n";
  }
  return 0;
}

// The command table and its driver.

/// One mode of the CLI.
struct Command {
  std::string name;                  ///< subcommand word; "" = default mode
  std::vector<std::string> flags;    ///< accepted flags, in error-list order
  const char* usage;                 ///< the --help text
  std::string required;              ///< without it: usage, exit 2
  std::vector<std::string> listings; ///< --list-<what> (serve listingFor)
  int (*run)(const CliArgs&);
};

const std::vector<Command>& commands() {
  static const std::vector<Command> table = {
      {"",
       {"workflow", "profile", "algo", "deadline-factor", "nodes-per-type",
        "scenario", "intervals", "alpha", "block-size", "ls-radius",
        "ls-restarts", "ls-seed", "bnb-max-nodes", "bnb-time-limit",
        "threads", "list-algos", "list-scenarios", "out", "gantt", "seed",
        "help", "trace", "trace-summary"},
       kScheduleUsage, "workflow", {"algos", "scenarios"}, runSchedule},
      {"campaign",
       {"campaign", "out", "summary", "quiet", "help", "name", "families",
        "tasks", "bacass-tasks", "nodes-per-type", "scenarios",
        "deadline-factors", "seeds", "intervals", "algos", "threads",
        "block-size", "ls-radius", "online", "actual", "policies",
        "runtime-noise", "store", "shard", "resume", "group-commit",
        "max-cells", "trace", "trace-summary"},
       kCampaignUsage, "", {}, runCampaignCommand},
      {"query",
       {"help", "store", "solvers", "scenarios", "families", "min-tasks",
        "max-tasks", "deadline-factors", "seeds", "instance-hash",
        "feasible-only", "records", "summary", "count", "quiet"},
       kQueryUsage, "store", {}, runQueryCommand},
      {"replay",
       {"help", "list-policies", "family", "tasks", "nodes-per-type",
        "intervals", "deadline-factor", "seed", "forecast", "actual",
        "policy", "algo", "runtime-noise", "runtime-seed", "block-size",
        "ls-radius", "alpha", "out", "trace", "trace-summary"},
       kReplayUsage, "", {"policies"}, runReplayCommand},
      {"serve",
       {"help", "port", "workers", "queue-capacity",
        "cache-capacity", "default-timeout-ms", "max-request-bytes",
        "block-size", "ls-radius", "quiet", "trace", "trace-summary"},
       kServeUsage, "", {}, runServeCommand},
  };
  return table;
}

} // namespace

int main(int argc, char** argv) {
  using namespace cawo;
  // A first argument that is not a flag names the subcommand (an empty
  // one matches none, not the default mode).
  const bool sub = argc > 1 && argv[1][0] != '-';
  const std::string word = sub ? argv[1] : "";
  const std::vector<Command>& table = commands();
  const auto cmd = std::find_if(
      table.begin(), table.end(), [&](const Command& c) {
        return c.name == word && (!sub || !c.name.empty());
      });
  if (cmd == table.end()) {
    std::string valid;
    for (const Command& c : table)
      if (!c.name.empty()) valid += (valid.empty() ? "" : ", ") + c.name;
    std::cerr << "error: unknown subcommand \"" << word
              << "\" for cawosched-cli (valid: " << valid << ")\n";
    return 2;
  }

  try {
    const CliArgs args(sub ? argc - 1 : argc, sub ? argv + 1 : argv,
                       cmd->flags,
                       sub ? "cawosched-cli " + word : "cawosched-cli");
    if (args.has("help")) {
      std::cout << cmd->usage;
      return 0;
    }
    for (const std::string& what : cmd->listings)
      if (args.has("list-" + what)) {
        std::cout << listingFor(what).text;
        return 0;
      }
    if (!cmd->required.empty() && !args.has(cmd->required)) {
      std::cout << cmd->usage;
      return 2;
    }
    obs::TraceSession trace(args.getString("trace", ""),
                            args.has("trace-summary"));
    return cmd->run(args);
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
