// cawosched-cli — schedule a DOT workflow under a CSV green-power profile
// with any solver from the registry, or run a declarative experiment
// campaign. Full reference: docs/cli.md.
//
//   cawosched-cli --list-algos
//   cawosched-cli --list-scenarios
//   cawosched-cli --workflow=flow.dot [--profile=green.csv]
//                 [--algo=<name|glob|comma list|all>] [--threads=N]
//                 [--deadline-factor=2.0] [--nodes-per-type=2]
//                 [--scenario=SPEC] [--intervals=24] [--alpha=0.5]
//                 [--block-size=3] [--ls-radius=10] [--ls-restarts=N]
//                 [--bnb-max-nodes=N] [--bnb-time-limit=SEC]
//                 [--out=schedule.csv] [--gantt] [--seed=1]
//   cawosched-cli campaign [--campaign=<file>] [--out=results.json]
//                 [--summary] [--threads=N] [--quiet]
//                 [--store=DIR] [--shard=i/N] [--resume]
//                 [--group-commit=64] [--max-cells=N]
//                 [--<axis>=<comma list> ...]   (overrides the file)
//   cawosched-cli query --store=DIR [--solvers=GLOB,...]
//                 [--scenarios=SPEC,...] [--families=a,b]
//                 [--min-tasks=N] [--max-tasks=N]
//                 [--deadline-factors=a,b] [--seeds=a,b]
//                 [--instance-hash=HEX] [--feasible-only]
//                 [--records[=FILE]] [--summary] [--count] [--quiet]
//   cawosched-cli replay [--list-policies]
//                 [--family=atacseq] [--tasks=60] [--nodes-per-type=2]
//                 [--intervals=24] [--deadline-factor=2.0] [--seed=1]
//                 [--forecast=SPEC] [--actual=SPEC] [--policy=SPEC,...]
//                 [--algo=NAME] [--runtime-noise=A] [--runtime-seed=N]
//                 [--out=replay.json]
//   cawosched-cli serve [--port=N] [--workers=N] [--threads=N]
//                 [--queue-capacity=64] [--cache-capacity=16]
//                 [--default-timeout-ms=0] [--max-request-bytes=B]
//                 [--block-size=3] [--ls-radius=10] [--quiet]
//
// The workflow is HEFT-mapped onto a Table 1 cluster, the enhanced graph
// is built, and every selected solver runs against the profile. Without
// --profile a power profile is generated over exactly the deadline
// horizon from any registered profile-source spec (--scenario accepts
// "S1" … "S4", "sine:period=24,amp=0.5", "trace:grid.csv,repeat=1", … —
// see --list-scenarios and docs/formats.md). Per-solver diagnostics (carbon cost, wall time,
// optimality flag, ratio vs ASAP) come from the uniform SolveResult;
// optionally the best schedule is written as CSV or an ASCII Gantt chart.
//
// The campaign subcommand expands a cross-product of workflow families,
// sizes, cluster sizes, scenarios, deadline factors and seeds (see
// docs/formats.md for the campaign file format), runs every selected
// solver on every instance in parallel, prints an aggregate summary and
// optionally writes one JSON record per (instance, solver) cell. With
// --store the records stream into a sharded, resumable on-disk result
// store instead of RAM (see docs/formats.md, "Campaign result store");
// the query subcommand filters and summarises such a store.
//
// Legacy spellings are still accepted: --variant=<name> equals
// --algo=<name>, and --green-heft equals --algo=greenheft.

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>

#include "core/asap.hpp"
#include "core/carbon_cost.hpp"
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

/// Parse `--shard=i/N` (0-based index, total count) into store options.
void parseShardFlag(const std::string& value, StoreOptions& options) {
  const std::vector<std::string> parts = split(value, '/');
  CAWO_REQUIRE(parts.size() == 2,
               "--shard wants i/N (0-based), e.g. --shard=0/4 — got \"" +
                   value + "\"");
  options.shardIndex = static_cast<std::size_t>(
      parseInt64Strict("--shard index", std::string(trim(parts[0]))));
  options.shardCount = static_cast<std::size_t>(
      parseInt64Strict("--shard count", std::string(trim(parts[1]))));
  CAWO_REQUIRE(options.shardCount >= 1 &&
                   options.shardIndex < options.shardCount,
               "--shard=" + value + ": index must be 0-based and below "
               "the shard count");
}

/// The store-backed campaign path: stream records into one shard of the
/// result store, then summarise (and optionally export) the merged store
/// if every shard is complete.
int runCampaignToStoreCommand(const CliArgs& args, const CampaignSpec& spec,
                              const SolverOptions& options, bool quiet) {
  StoreOptions storeOptions;
  if (args.has("shard"))
    parseShardFlag(args.getString("shard", ""), storeOptions);
  storeOptions.resume = args.has("resume");
  storeOptions.groupCommit =
      static_cast<std::size_t>(args.getInt("group-commit", 64));
  const std::string dir = args.getString("store", "");
  CAWO_REQUIRE(!dir.empty(), "--store wants a directory path");

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

  const CampaignOutcome outcome = summariseStore(reader);
  if (!quiet || !args.has("out"))
    printCampaignSummary(std::cout, outcome, args.has("summary"));
  if (args.has("out")) {
    const std::string out = args.getString("out", "results.json");
    writeCampaignJsonFileFromStore(out, reader);
    if (!quiet)
      std::cout << "\n" << reader.totalCells() << " JSON records written "
                << "to " << out << "\n";
  }
  return 0;
}

/// `cawosched-cli campaign ...` — run a declarative experiment campaign.
/// `argv` starts at the flags after the subcommand word.
int runCampaignCommand(int argc, const char* const* argv) {
  const CliArgs args(argc, argv,
                     {"campaign", "out", "summary", "quiet", "help", "name",
                      "families", "tasks", "bacass-tasks", "nodes-per-type",
                      "scenarios", "deadline-factors", "seeds", "intervals",
                      "algos", "threads", "block-size", "ls-radius", "online",
                      "actual", "policies", "runtime-noise", "store", "shard",
                      "resume", "group-commit", "max-cells", "trace",
                      "trace-summary"},
                     "cawosched-cli campaign");
  if (args.has("help")) {
    std::cout
        << "usage: cawosched-cli campaign [--campaign=<file>] "
           "[--out=results.json] [--summary]\n"
           "  [--threads=N] [--quiet] [--name=label] "
           "[--families=atacseq,eager,...]\n"
           "  [--tasks=a,b] [--bacass-tasks=N] [--nodes-per-type=a,b] "
           "[--scenarios=SPEC,...|all]\n"
           "  [--deadline-factors=1.5,2.0] [--seeds=a,b] [--intervals=J] "
           "[--algos=SEL]\n"
           "  [--block-size=3] [--ls-radius=10] [--online=1] "
           "[--actual=SPEC]\n"
           "  [--policies=SPEC,...] [--runtime-noise=A]\n"
           "  [--store=DIR] [--shard=i/N] [--resume] [--group-commit=64] "
           "[--max-cells=N]\n"
           "With --online=1 every (instance, solver, policy) cell runs "
           "through the online\nreplay engine (see `cawosched-cli replay "
           "--help`).\n"
           "The campaign file holds the same keys as the flags "
           "(key = value lines or a JSON\nobject, see docs/formats.md); "
           "flags override the file. The scenarios axis takes\nany "
           "registered profile spec (--list-scenarios), e.g. "
           "S1,sine:period=24,amp=0.5,duck.\n"
           "With --store records stream into a sharded, resumable on-disk "
           "result store\ninstead of RAM: --shard=i/N partitions the grid "
           "across N independent processes,\n--resume completes an "
           "interrupted run (only missing cells are solved), and\n"
           "`cawosched-cli query` filters the result (see docs/cli.md).\n"
           "--trace=FILE writes a Perfetto-loadable Chrome trace of the "
           "run;\n--trace-summary prints a per-span rollup to stderr "
           "(docs/observability.md).\n";
    return 0;
  }

  obs::TraceSession trace(args.getString("trace", ""),
                          args.has("trace-summary"));

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

  SolverOptions options;
  options.setInt("block-size", args.getInt("block-size", 3));
  options.setInt("ls-radius", args.getInt("ls-radius", 10));

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

  for (const char* storeOnly : {"shard", "resume", "group-commit",
                                "max-cells"})
    CAWO_REQUIRE(args.has("store") || !args.has(storeOnly),
                 std::string("--") + storeOnly +
                     " needs --store=DIR (the in-memory path has no "
                     "shards or resume)");
  if (args.has("store"))
    return runCampaignToStoreCommand(args, spec, options, quiet);

  ProgressMeter meter(!quiet);
  const CampaignOutcome outcome = runCampaign(spec, options, std::ref(meter));

  if (!quiet || !args.has("out"))
    printCampaignSummary(std::cout, outcome, args.has("summary"));
  if (args.has("out")) {
    const std::string out = args.getString("out", "results.json");
    writeCampaignJsonFile(out, outcome);
    if (!quiet)
      std::cout << "\n" << outcome.records.size() << " JSON records written "
                << "to " << out << "\n";
  }
  return 0;
}

/// `cawosched-cli query ...` — filter and summarise a campaign result
/// store without loading it into memory. `argv` starts after the
/// subcommand word.
int runQueryCommand(int argc, const char* const* argv) {
  const CliArgs args(argc, argv,
                     {"help", "store", "solvers", "scenarios", "families",
                      "min-tasks", "max-tasks", "deadline-factors", "seeds",
                      "instance-hash", "feasible-only", "records", "summary",
                      "count", "quiet"},
                     "cawosched-cli query");
  if (args.has("help") || !args.has("store")) {
    std::cout
        << "usage: cawosched-cli query --store=DIR [--solvers=GLOB,...]\n"
           "  [--scenarios=SPEC,...] [--families=a,b] [--min-tasks=N] "
           "[--max-tasks=N]\n"
           "  [--deadline-factors=a,b] [--seeds=a,b] "
           "[--instance-hash=HEX]\n"
           "  [--feasible-only] [--records[=FILE]] [--summary] [--count] "
           "[--quiet]\n"
           "Streams a campaign result store (campaign --store=DIR) "
           "through the filters in\nmerged instance order. --records "
           "emits the matching record lines (JSONL) to\nstdout or FILE; "
           "--summary prints the per-solver aggregate over the matches;\n"
           "--count prints only the match count. --solvers takes the same "
           "glob syntax as\n--algos; online stores match the full "
           "\"solver @ policy\" cell label.\n";
    return args.has("help") ? 0 : 2;
  }

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

// The three discovery listings print the shared serve/listings rendering,
// so the CLI output and the serve daemon's `list` responses are the same
// bytes by construction.
int listPolicies() {
  std::cout << policyListing().text;
  return 0;
}

/// `cawosched-cli replay ...` — execute one instance through the online
/// replay engine: plan against the forecast, bill against the actual,
/// compare rescheduling policies. `argv` starts after the subcommand word.
int runReplayCommand(int argc, const char* const* argv) {
  const CliArgs args(argc, argv,
                     {"help", "list-policies", "family", "tasks",
                      "nodes-per-type", "intervals", "deadline-factor",
                      "seed", "forecast", "actual", "policy", "algo",
                      "runtime-noise", "runtime-seed", "block-size",
                      "ls-radius", "alpha", "out", "trace",
                      "trace-summary"},
                     "cawosched-cli replay");
  if (args.has("help")) {
    std::cout
        << "usage: cawosched-cli replay [--list-policies]\n"
           "  [--family=atacseq] [--tasks=60] [--nodes-per-type=2] "
           "[--intervals=24]\n"
           "  [--deadline-factor=2.0] [--seed=1] [--forecast=SPEC] "
           "[--actual=SPEC]\n"
           "  [--policy=SPEC,...] [--algo=NAME] [--runtime-noise=A] "
           "[--runtime-seed=N]\n"
           "  [--block-size=3] [--ls-radius=10] [--alpha=0.5] "
           "[--out=replay.json]\n"
           "The solver plans against --forecast (any profile spec; its "
           "+noise modifier is\nread as forecast error) and execution is "
           "billed against --actual (defaults to\nthe forecast's noisy "
           "counterpart). Each --policy runs one replay; see\n"
           "--list-policies and docs/cli.md for a walkthrough.\n"
           "--trace=FILE / --trace-summary record per-event and "
           "per-re-solve spans\n(docs/observability.md).\n";
    return 0;
  }
  if (args.has("list-policies")) return listPolicies();

  obs::TraceSession trace(args.getString("trace", ""),
                          args.has("trace-summary"));

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
  if (args.has("alpha"))
    opts.solverOptions.setDouble("alpha", args.getDouble("alpha", 0.5));
  opts.solverOptions.setInt("block-size", args.getInt("block-size", 3));
  opts.solverOptions.setInt("ls-radius", args.getInt("ls-radius", 10));

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
      replayOnlinePolicies(inst, actualSpec, opts, policies);

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
    const std::string out = args.getString("out", "replay.json");
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

int listAlgos() {
  std::cout << algoListing().text;
  return 0;
}

int listScenarios() {
  std::cout << scenarioListing().text;
  return 0;
}

/// `cawosched-cli serve ...` — the scheduler-as-a-service daemon: speak
/// `cawosched-serve-v1` newline-delimited JSON over stdin/stdout and,
/// with --port, a loopback TCP socket too. `argv` starts after the
/// subcommand word. See docs/cli.md for a walkthrough.
int runServeCommand(int argc, const char* const* argv) {
  const CliArgs args(argc, argv,
                     {"help", "port", "workers", "threads",
                      "queue-capacity", "cache-capacity",
                      "default-timeout-ms", "max-request-bytes",
                      "block-size", "ls-radius", "quiet", "trace",
                      "trace-summary"},
                     "cawosched-cli serve");
  if (args.has("help")) {
    std::cout
        << "usage: cawosched-cli serve [--port=N] [--workers=N] "
           "[--threads=N]\n"
           "  [--queue-capacity=64] [--cache-capacity=16] "
           "[--default-timeout-ms=0]\n"
           "  [--max-request-bytes=1048576] [--block-size=3] "
           "[--ls-radius=10] [--quiet]\n"
           "--workers sizes the request pool (0 = hardware); --threads "
           "sets the default\nintra-solve thread budget per request "
           "(0 = hardware; results never change).\n"
           "Long-running scheduler daemon: one JSON request per line on "
           "stdin, one JSON\nresponse per line on stdout "
           "(cawosched-serve-v1 — kinds: solve, replay, list,\nstats, "
           "shutdown; see docs/formats.md). With --port the same protocol "
           "is also\nserved on 127.0.0.1:N (0 = ephemeral; the bound port "
           "is announced on stderr).\nThe daemon exits on a shutdown "
           "request, or on stdin EOF when no --port is\ngiven. Repeated "
           "instances hit an LRU SolveContext cache (watch the `stats`\n"
           "request's cache_hits). Diagnostics go to stderr; stdout "
           "carries protocol\nbytes only.\n"
           "--trace=FILE writes per-request span trees (admission, queue "
           "wait, cache\nacquire, solve, respond) on exit; --trace-summary "
           "prints the rollup\n(docs/observability.md).\n";
    return 0;
  }

  obs::TraceSession trace(args.getString("trace", ""),
                          args.has("trace-summary"));

  ServeOptions options;
  options.workers = static_cast<unsigned>(args.getInt("workers", 0));
  options.queueCapacity =
      static_cast<std::size_t>(args.getInt("queue-capacity", 64));
  options.cacheCapacity =
      static_cast<std::size_t>(args.getInt("cache-capacity", 16));
  options.defaultTimeoutMs = args.getInt("default-timeout-ms", 0);
  options.maxRequestBytes =
      static_cast<std::size_t>(args.getInt("max-request-bytes", 1 << 20));
  options.solverDefaults.setInt("block-size", args.getInt("block-size", 3));
  options.solverDefaults.setInt("ls-radius", args.getInt("ls-radius", 10));
  if (args.has("threads"))
    options.solverDefaults.setInt("threads",
                                  threadsFromArgs(args, "threads", 1));

  ServeServer server(options);
  std::unique_ptr<TcpServeListener> listener;
  if (args.has("port"))
    listener = std::make_unique<TcpServeListener>(
        server, static_cast<std::uint16_t>(args.getInt("port", 0)));

  // Everything human goes to stderr — stdout is protocol bytes only.
  if (!args.has("quiet")) {
    std::cerr << "cawosched-serve: " << server.stats().workers
              << " workers, queue capacity " << options.queueCapacity
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

/// Outcome of one solver run (or the reason it was skipped).
struct CliRun {
  std::string name;
  bool ran = false;
  std::string error;
  SolveResult result;
};

} // namespace

int main(int argc, char** argv) {
  using namespace cawo;
  try {
    if (argc > 1 && std::string(argv[1]) == "campaign")
      return runCampaignCommand(argc - 1, argv + 1);
    if (argc > 1 && std::string(argv[1]) == "replay")
      return runReplayCommand(argc - 1, argv + 1);
    if (argc > 1 && std::string(argv[1]) == "serve")
      return runServeCommand(argc - 1, argv + 1);
    if (argc > 1 && std::string(argv[1]) == "query")
      return runQueryCommand(argc - 1, argv + 1);
    if (argc > 1 && argv[1][0] != '-') {
      std::cerr << "error: unknown subcommand \"" << argv[1]
                << "\" for cawosched-cli (valid: campaign, query, replay, "
                   "serve)\n";
      return 2;
    }

    const CliArgs args(
        argc, argv,
        {"workflow", "profile", "algo", "variant", "deadline-factor",
         "nodes-per-type", "scenario", "intervals", "green-heft", "alpha",
         "block-size", "ls-radius", "ls-restarts", "ls-seed",
         "bnb-max-nodes", "bnb-time-limit", "threads", "list-algos",
         "list-scenarios", "out", "gantt", "seed", "help", "trace",
         "trace-summary"},
        "cawosched-cli");

    if (args.has("list-algos")) return listAlgos();
    if (args.has("list-scenarios")) return listScenarios();
    if (args.has("help") || !args.has("workflow")) {
      std::cout
          << "usage: cawosched-cli --workflow=flow.dot "
             "[--profile=green.csv] [--algo=name|glob|all]\n"
             "  [--threads=N] [--deadline-factor=2.0] [--nodes-per-type=2] "
             "[--scenario=SPEC]\n"
             "  [--intervals=24] [--alpha=0.5] [--block-size=3] "
             "[--ls-radius=10] [--ls-restarts=N]\n"
             "  [--bnb-max-nodes=N] [--bnb-time-limit=SEC] "
             "[--out=schedule.csv] [--gantt] [--seed=1]\n"
             "  cawosched-cli --list-algos | --list-scenarios\n"
             "subcommands:\n"
             "  campaign  run a declarative experiment campaign "
             "(see campaign --help)\n"
             "  query     filter/summarise a campaign result store "
             "(see query --help)\n"
             "  replay    online forecast-vs-actual execution replay "
             "(see replay --help,\n"
             "            replay --list-policies)\n"
             "  serve     long-running scheduler daemon speaking "
             "newline-delimited JSON\n"
             "            over stdin/stdout and a local socket "
             "(see serve --help)\n"
             "SPEC is any registered profile source, e.g. S1, duck, "
             "sine:period=24,amp=0.5,\ntrace:grid.csv,repeat=1 — see "
             "--list-scenarios.\n"
             "--trace=FILE writes a Perfetto-loadable Chrome trace of the "
             "solve;\n--trace-summary prints a per-span rollup to stderr.\n";
      return args.has("help") ? 0 : 2;
    }

    obs::TraceSession trace(args.getString("trace", ""),
                            args.has("trace-summary"));

    const TaskGraph workflow = readDotFile(args.getString("workflow", ""));
    const Platform cluster = Platform::scaled(
        static_cast<int>(args.getInt("nodes-per-type", 2)));
    const double factor = args.getDouble("deadline-factor", 2.0);
    const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 1));

    // Fixed mapping and ordering from plain HEFT; carbon-aware mapping is
    // now a solver ("greenheft") rather than a CLI mode.
    const HeftResult mapped = runHeft(workflow, cluster);
    LinkPowerOptions linkPower;
    linkPower.seed = seed;
    const EnhancedGraph gc = EnhancedGraph::build(
        workflow, cluster, mapped.mapping, linkPower, &mapped.startTimes);
    const Time d = asapMakespan(gc);
    const auto deadline =
        static_cast<Time>(factor * static_cast<double>(d)) + 1;

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

    // Solver selection: --algo wins, legacy --variant / --green-heft map
    // onto it, default is the paper's strongest variant.
    std::string selection = args.getString("algo", "");
    if (selection.empty() && args.has("variant"))
      selection = args.getString("variant", "");
    if (selection.empty() && args.has("green-heft")) selection = "greenheft";
    if (selection.empty()) selection = "pressWR-LS";

    const SolverRegistry& registry = SolverRegistry::global();
    const std::vector<std::string> names = registry.select(selection);

    SolverOptions options;
    // Only forward --alpha when given, so bracketed selections like
    // --algo=greenheft[0.25] keep their inline parameter.
    if (args.has("alpha"))
      options.setDouble("alpha", args.getDouble("alpha", 0.5));
    options.setInt("block-size", args.getInt("block-size", 3));
    options.setInt("ls-radius", args.getInt("ls-radius", 10));
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

    // Run the selection, optionally across threads (0 = hardware,
    // negative rejected). Solvers are independent and deterministic, so
    // the parallelism only affects wall time, never results. A
    // multi-solver selection fans out across solvers; a single solver
    // gets the budget as intra-solve threads instead (local-search
    // restart fan-out and wide candidate scans — equally deterministic).
    std::vector<CliRun> runs(names.size());
    const unsigned threads = threadsFromArgs(args, "threads", 1);
    if (names.size() == 1) request.options.setInt("threads", threads);
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

    TextTable table(
        {"solver", "carbon cost", "vs ASAP", "wall ms", "optimal"});
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

    // Export the cheapest feasible schedule. A re-mapping solver's
    // schedule refers to its own enhanced graph and deadline, so the
    // export uses the run's effective graph.
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
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
