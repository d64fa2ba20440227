// The two offline campaign workloads (README.md, "Workloads").
//
// Untraced runs drive the library exactly as a user does: parse a campaign
// text, call runCampaign (campaign-ls) or runCampaignToStore followed by
// writeCampaignJsonFromStore (campaign-greedy-store), and time each
// campaign and each instance over repeated identical passes. Traced runs
// first make the same untraced passes, then replay the same campaigns
// through the public per-instance entry points (buildInstance, the
// SolveContext getters, SolverRegistry::create(..)->solve, the record
// sinks and the store export) with benchmark-side layer spans around each
// call, and check that every cell costs the same as in the untraced pass.

#include <atomic>
#include <filesystem>
#include <iostream>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "core/carbon_cost.hpp"
#include "core/cawosched.hpp"
#include "core/instance_hash.hpp"
#include "core/scores.hpp"
#include "core/solve_context.hpp"
#include "exp/campaign.hpp"
#include "exp/campaign_runner.hpp"
#include "exp/json.hpp"
#include "exp/record_json.hpp"
#include "exp/record_sink.hpp"
#include "exp/store.hpp"
#include "sim/instance.hpp"
#include "sim/runner.hpp"
#include "solver/registry.hpp"

namespace e2e {
namespace {

using namespace cawo;
namespace fs = std::filesystem;

struct CampaignShape {
  const char* name;
  bool store; ///< runCampaignToStore + export, else runCampaign
};

constexpr CampaignShape kLs{"campaign-ls", false};
constexpr CampaignShape kGreedyStore{"campaign-greedy-store", true};

/// A pass runs one campaign per (scenario, deadline factor) of S1-S4 x
/// {1.5, 2.0}, each on its own fresh workflows, so a pass solves 8x as
/// many distinct workflows as one cross-product campaign of the same size
/// and a run's figures do not hinge on how a few workflows behave.
constexpr int kCampaignsPerPass = 8;

/// The text of campaign `c` of a pass; every pass of a run repeats the
/// same eight. Workflow seeds come from the run seed (distinct for run
/// seeds below 10^12). campaign-ls: the paper's 17 solvers (ASAP + the 16
/// variants) at tasks=400, four workflows per family, one thread.
/// campaign-greedy-store: ASAP + the 8 greedy-only variants at
/// tasks=2000, eight workflows per family, sharded over min(4, nproc)
/// threads.
std::string campaignText(const CampaignShape& shape, const RunConfig& config,
                         int c) {
  static const char* const kScenarios[] = {"S1", "S2", "S3", "S4"};
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const int workflows = config.smoke ? 1 : shape.store ? 8 : 4;
  std::ostringstream text;
  text << "name = " << shape.name << "\n";
  text << "families = atacseq, eager, methylseq\n";
  text << "scenarios = " << kScenarios[c % 4] << "\n";
  text << "deadline-factors = " << (c < 4 ? "1.5" : "2.0") << "\n";
  text << "seeds = ";
  for (int j = 0; j < workflows; ++j)
    text << (j ? ", " : "") << config.seed * 1000000ULL + 100ULL * c + 1 + j;
  text << "\n";
  if (!shape.store) {
    text << "tasks = " << (config.smoke ? 60 : 400) << "\n";
    text << "algos = suite\n";
    text << "threads = 1\n";
  } else {
    text << "tasks = " << (config.smoke ? 80 : 2000) << "\n";
    text << "algos = ASAP, slack, slackW, slackR, slackWR, press, pressW, "
            "pressR, pressWR\n";
    text << "threads = " << std::min(4u, hw) << "\n";
  }
  return text.str();
}

/// Output checks and the quality figures over a pass's cells.
struct CellLedger {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> problems;
  Digest digest;
  double cost = 0.0;         ///< Σ cost over feasible non-baseline cells
  double baselineCost = 0.0; ///< Σ ASAP cost over the same cells
  std::vector<Cost> costs; ///< every cell's cost, grid order

  void add(const CampaignRecord& r, const std::string& baseline) {
    costs.push_back(r.skipped ? -1 : r.cost);
    if (r.skipped) return;
    ++attempted;
    digest.add(r.spec.cellKey());
    digest.add(r.solver);
    digest.add(static_cast<std::int64_t>(r.cost));
    if (!r.feasible || r.cost < r.lowerBound) {
      ++failed;
      if (problems.size() < 5)
        problems.push_back(r.spec.cellKey() + " " + r.solver +
                           (r.feasible ? " costs below carbonLowerBound"
                                       : " is infeasible"));
      return;
    }
    if (r.solver != baseline && r.hasBaseline) {
      cost += static_cast<double>(r.cost);
      baselineCost += static_cast<double>(r.baselineCost);
    }
  }
};

/// Per-instance times of one campaign. The runner hands each finished
/// instance to the sink and then calls progress, both on the worker that
/// solved it, so the gap since that worker's previous instance (or the
/// campaign start) is the instance's build + solves + append.
class InstanceClock {
public:
  explicit InstanceClock(std::size_t instances)
      : ms_(instances, 0.0), start_(Clock::now()) {}

  void finished(std::size_t instance) {
    const Clock::time_point now = Clock::now();
    const std::scoped_lock lock(mutex_);
    const auto [it, fresh] = last_.try_emplace(std::this_thread::get_id(), start_);
    ms_.at(instance) = msBetween(it->second, now);
    it->second = now;
  }

  const std::vector<double>& ms() const { return ms_; }

private:
  std::vector<double> ms_;
  Clock::time_point start_;
  std::mutex mutex_;
  std::map<std::thread::id, Clock::time_point> last_;
};

/// The store writer, telling the instance clock which instance a worker
/// just finished (the progress callback only counts cells).
class TimedStoreWriter : public CampaignStoreWriter {
public:
  TimedStoreWriter(const std::string& dir, const CampaignSpec& spec,
                   InstanceClock& clock)
      : CampaignStoreWriter(dir, spec), clock_(clock) {}

  void appendInstance(std::size_t instanceIndex, const CampaignRecord* records,
                      std::size_t count) override {
    CampaignStoreWriter::appendInstance(instanceIndex, records, count);
    clock_.finished(instanceIndex);
  }

private:
  InstanceClock& clock_;
};

std::uint64_t directoryBytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.is_regular_file()) total += entry.file_size();
  return total;
}

/// Read a finished store back: every cell into the ledger, and the
/// exported document must hold every record.
void checkStore(const std::string& dir, const std::string& document,
                const std::string& baseline, CellLedger& ledger) {
  CampaignStoreReader reader(dir);
  if (!reader.complete()) {
    ledger.problems.push_back("store " + dir + " is incomplete");
    ++ledger.failed;
  }
  reader.forEachPresentCell(
      [&](std::size_t, std::size_t, const std::string& line) {
        ledger.add(parseCampaignRecordLine(line), baseline);
      });
  const JsonValue doc = JsonValue::parse(document);
  if (doc.at("records").asArray().size() != reader.totalCells()) {
    ledger.problems.push_back("exported document misses records");
    ++ledger.failed;
  }
}

/// One untraced campaign: the library's own campaign entry points.
struct UntracedCampaign {
  CampaignSpec spec;
  double setupMs = 0.0;
  double wallMs = 0.0;
  std::size_t cells = 0;
  std::vector<double> instanceMs; ///< by instance index
  CellLedger ledger;
};

UntracedCampaign runUntracedCampaign(const CampaignShape& shape,
                                     const RunConfig& config, int c) {
  UntracedCampaign out;
  const std::string text = campaignText(shape, config, c);
  const std::string dir = config.workDir + "/store-" + std::to_string(c);

  // Set-up: everything from the campaign text to the first build.
  const Clock::time_point setupStart = Clock::now();
  out.spec = parseCampaignText(text);
  const std::size_t numInstances = expandCampaign(out.spec).size();
  const std::vector<std::string> labels = campaignCellLabels(out.spec);
  InstanceClock clock(numInstances);
  std::optional<TimedStoreWriter> store;
  if (shape.store) store.emplace(dir, out.spec, clock);
  out.setupMs = msBetween(setupStart, Clock::now());
  out.cells = numInstances * labels.size();

  const Clock::time_point start = Clock::now();
  if (!shape.store) {
    // One thread: instances finish in index order.
    const std::size_t stride = labels.size();
    const CampaignOutcome outcome = runCampaign(
        out.spec, SolverOptions{},
        [&](std::size_t done, std::size_t) { clock.finished(done / stride - 1); });
    out.wallMs = msBetween(start, Clock::now());
    for (const CampaignRecord& r : outcome.records)
      out.ledger.add(r, labels.front());
  } else {
    (void)runCampaignToStore(SolverOptions{}, *store);
    std::ostringstream document;
    {
      CampaignStoreReader reader(dir);
      writeCampaignJsonFromStore(document, reader);
    }
    out.wallMs = msBetween(start, Clock::now());
    store.reset();
    checkStore(dir, document.str(), labels.front(), out.ledger);
    fs::remove_all(dir);
  }
  out.instanceMs = clock.ms();
  return out;
}

const std::vector<std::pair<std::string, std::string>>& campaignLayers() {
  static const std::vector<std::pair<std::string, std::string>> tree{
      {"sim.build", ""},
      {"core.context", ""},
      {"core.context.windows", "core.context"},
      {"core.context.refine", "core.context"},
      {"core.context.budget_tree", "core.context"},
      {"core.context.score_order", "core.context"},
      {"solver.create", ""},
      {"solver.solve", ""},
      {"core.greedy", "solver.solve"},
      {"core.ls", "solver.solve"},
      {"solver.post", "solver.solve"},
      {"exp.record", ""},
      {"exp.store_append", ""},
      {"exp.export", ""},
  };
  return tree;
}

struct LayerIds {
  int build, context, windows, refine, budgetTree, scoreOrder, create, solve,
      greedy, ls, post, record, append, exportDoc;
  explicit LayerIds(const LayerClock& c)
      : build(c.id("sim.build")), context(c.id("core.context")),
        windows(c.id("core.context.windows")),
        refine(c.id("core.context.refine")),
        budgetTree(c.id("core.context.budget_tree")),
        scoreOrder(c.id("core.context.score_order")),
        create(c.id("solver.create")), solve(c.id("solver.solve")),
        greedy(c.id("core.greedy")), ls(c.id("core.ls")),
        post(c.id("solver.post")), record(c.id("exp.record")),
        append(c.id("exp.store_append")), exportDoc(c.id("exp.export")) {}
};

/// Local-search counters per lane (rounds, moves, rounds x Gc nodes).
struct LsCounters {
  std::int64_t rounds = 0;
  std::int64_t moves = 0;
  double roundNodes = 0.0;
};

std::int64_t statOr(const std::map<std::string, std::int64_t>& stats,
                    const char* key, std::int64_t fallback) {
  const auto it = stats.find(key);
  return it == stats.end() ? fallback : it->second;
}

/// The campaign runner's per-instance cell loop, replayed call by call
/// with a layer span around each library call. Context artifacts are
/// primed up front (pure functions of the instance, so every cell costs
/// the same as in the runner, which derives them lazily).
void solveInstanceTraced(const InstanceSpec& cell,
                         const std::vector<std::string>& labels,
                         LayerClock::Lane& lane, const LayerIds& L,
                         LsCounters& lsCounters, CampaignRecord* records) {
  const Instance instance = [&] {
    const ScopedLayer span(lane, L.build);
    return buildInstance(cell);
  }();
  const SolveContext context(instance.gc, instance.profile,
                             instance.deadline);
  const int blockSize = CaWoParams{}.blockSize;
  {
    const ScopedLayer span(lane, L.context);
    {
      const ScopedLayer inner(lane, L.windows);
      (void)context.initialEst();
      (void)context.initialLst();
      (void)context.asapMakespan();
      (void)context.sumWorkPower();
    }
    {
      const ScopedLayer inner(lane, L.refine);
      (void)context.refinedIntervals(blockSize);
    }
    {
      const ScopedLayer inner(lane, L.budgetTree);
      (void)context.budgetTreePrototype(true, blockSize);
      (void)context.budgetTreePrototype(false, blockSize);
    }
    {
      const ScopedLayer inner(lane, L.scoreOrder);
      for (const BaseScore base : {BaseScore::Slack, BaseScore::Pressure})
        for (const bool weighted : {false, true})
          (void)context.scoreOrder(ScoreOptions{base, weighted});
    }
  }

  Cost lowerBound = 0;
  std::uint64_t hash = 0;
  {
    const ScopedLayer span(lane, L.record);
    lowerBound = carbonLowerBound(instance.gc, instance.profile);
    hash = instanceHash(instance.gc, instance.profile, instance.deadline);
  }

  SolveRequest request;
  request.gc = &instance.gc;
  request.profile = &instance.profile;
  request.deadline = instance.deadline;
  request.graph = &instance.graph;
  request.platform = &instance.platform;
  request.context = &context;

  const SolverRegistry& registry = SolverRegistry::global();
  for (std::size_t s = 0; s < labels.size(); ++s) {
    SolverPtr solver;
    bool fits = false;
    {
      const ScopedLayer span(lane, L.create);
      solver = registry.create(labels[s]);
      fits = solverFitsInstance(solver->info(), instance);
    }
    CampaignRecord& record = records[s];
    {
      const ScopedLayer span(lane, L.record);
      record = CampaignRecord{};
      record.spec = instance.spec;
      record.instance = instance.spec.label();
      record.deadline = instance.deadline;
      record.asapMakespanD = instance.asapMakespanD;
      record.numNodes = instance.gc.numNodes();
      record.instanceHash = hash;
      record.lowerBound = lowerBound;
      record.solver = labels[s];
      record.ratioVsBaseline = std::numeric_limits<double>::quiet_NaN();
      record.skipped = !fits;
    }
    if (!fits) continue;

    const Clock::time_point solveStart = Clock::now();
    const SolveResult solved = solver->solve(request);
    const double outerMs = msBetween(solveStart, Clock::now());
    lane.add(L.solve, outerMs);
    lane.add(L.post, outerMs - solved.wallMs);
    const std::int64_t greedyUs = statOr(solved.stats, "greedy-us", -1);
    const std::int64_t lsUs = statOr(solved.stats, "ls-us", -1);
    if (greedyUs >= 0) lane.add(L.greedy, static_cast<double>(greedyUs) / 1000.0);
    if (lsUs >= 0) {
      lane.add(L.ls, static_cast<double>(lsUs) / 1000.0);
      const std::int64_t rounds = statOr(solved.stats, "ls-rounds", 0);
      lsCounters.rounds += rounds;
      lsCounters.moves += statOr(solved.stats, "ls-moves", 0);
      lsCounters.roundNodes += static_cast<double>(rounds) *
                               static_cast<double>(instance.gc.numNodes());
    }

    const ScopedLayer span(lane, L.record);
    record.cost = solved.cost;
    record.wallMs = solved.wallMs;
    record.feasible = solved.feasible;
    record.provedOptimal = solved.provedOptimal;
    if (greedyUs >= 0) {
      record.hasPhaseSplit = true;
      record.greedyMs = static_cast<double>(greedyUs) / 1000.0;
    }
    if (lsUs >= 0) {
      record.hasLocalSearch = true;
      record.lsMs = static_cast<double>(lsUs) / 1000.0;
      record.lsRounds = statOr(solved.stats, "ls-rounds", 0);
      record.lsMoves = statOr(solved.stats, "ls-moves", 0);
      record.lsInitialCost = statOr(solved.stats, "ls-initial-cost", 0);
      record.lsFinalCost = statOr(solved.stats, "ls-final-cost", 0);
    }
  }

  // Ratios against the first cell, as the runner assigns them.
  const ScopedLayer span(lane, L.record);
  const CampaignRecord& baseline = records[0];
  if (baseline.skipped || !baseline.feasible) return;
  for (std::size_t s = 0; s < labels.size(); ++s) {
    CampaignRecord& record = records[s];
    if (record.skipped) continue;
    record.hasBaseline = true;
    record.baselineCost = baseline.cost;
    if (!record.feasible) continue;
    if (baseline.cost > 0)
      record.ratioVsBaseline = static_cast<double>(record.cost) /
                               static_cast<double>(baseline.cost);
    else if (record.cost == 0)
      record.ratioVsBaseline = 1.0;
  }
}

struct TracedPass {
  double wallMs = 0.0;   ///< real elapsed time
  double threadMs = 0.0; ///< Σ worker-lane busy time + serial phases
  std::int64_t fsyncs = 0;
  std::uint64_t storeBytes = 0;
};

/// Replay one campaign's grid through the per-instance entry points.
/// Lane 0 is the main thread (flush, export); lanes 1..W the instance
/// workers.
TracedPass runTracedCampaign(const CampaignShape& shape,
                             const RunConfig& config, const CampaignSpec& spec,
                             LayerClock& clock,
                             std::vector<LsCounters>& lsCounters,
                             CellLedger& ledger) {
  TracedPass out;
  const LayerIds L(clock);
  const std::vector<InstanceSpec> instances = expandCampaign(spec);
  const std::vector<std::string> labels = campaignCellLabels(spec);
  const std::size_t S = labels.size();
  std::vector<CampaignRecord> records(instances.size() * S);
  MemoryRecordSink memory(records, S);
  const std::string dir = config.workDir + "/traced-store";
  std::optional<CampaignStoreWriter> store;
  if (shape.store) store.emplace(dir, spec);
  RecordSink& sink = shape.store ? static_cast<RecordSink&>(*store)
                                 : static_cast<RecordSink&>(memory);

  unsigned workers = spec.threads == 0 ? std::thread::hardware_concurrency()
                                       : spec.threads;
  workers = std::max(1u, std::min<unsigned>(
                             workers, static_cast<unsigned>(instances.size())));
  std::vector<double> laneBusy(workers, 0.0);
  std::atomic<std::size_t> next{0};
  const auto work = [&](unsigned w) {
    const Clock::time_point laneStart = Clock::now();
    LayerClock::Lane& lane = clock.lane(w + 1);
    std::vector<CampaignRecord> group(S);
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= instances.size()) break;
      solveInstanceTraced(instances[i], labels, lane, L, lsCounters[w + 1],
                          group.data());
      const ScopedLayer span(lane, L.append);
      sink.appendInstance(i, group.data(), S);
      if (shape.store)
        std::copy(group.begin(), group.end(), records.begin() + i * S);
    }
    laneBusy[w] = msBetween(laneStart, Clock::now());
  };

  const Clock::time_point start = Clock::now();
  if (workers == 1) {
    work(0);
  } else {
    std::vector<std::thread> threads;
    for (unsigned w = 0; w < workers; ++w) threads.emplace_back(work, w);
    for (std::thread& t : threads) t.join();
  }
  LayerClock::Lane& main = clock.lane(0);
  double serialMs = 0.0;
  if (shape.store) {
    const Clock::time_point serialStart = Clock::now();
    {
      const ScopedLayer span(main, L.append);
      store->flush();
    }
    {
      const ScopedLayer span(main, L.exportDoc);
      CampaignStoreReader reader(dir);
      std::ostringstream document;
      writeCampaignJsonFromStore(document, reader);
    }
    serialMs = msBetween(serialStart, Clock::now());
  }
  out.wallMs = msBetween(start, Clock::now());
  for (const double busy : laneBusy) out.threadMs += busy;
  out.threadMs += serialMs;

  for (const CampaignRecord& r : records) ledger.add(r, labels.front());
  if (shape.store) {
    out.fsyncs = static_cast<std::int64_t>(store->fsyncCount());
    store.reset();
    out.storeBytes = directoryBytes(dir);
    fs::remove_all(dir);
  }
  return out;
}

RunReport runCampaign(const CampaignShape& shape, const RunConfig& config) {
  RunReport report;
  using Pass = std::vector<UntracedCampaign>;
  std::vector<Pass> passes;
  const auto passMs = [](const Pass& pass) {
    double ms = 0.0;
    for (const UntracedCampaign& c : pass) ms += c.setupMs + c.wallMs;
    return ms;
  };

  // Identical untraced passes until the budget is spent (half of it when
  // a traced replay follows), at least three. A pass starts only if one
  // more of the last pass's length still fits.
  const double budgetMs = 1000.0 * config.seconds * (config.trace ? 0.5 : 1.0);
  const std::size_t minPasses = config.smoke ? 1 : 3;
  const Clock::time_point runStart = Clock::now();
  while (passes.size() < minPasses ||
         msBetween(runStart, Clock::now()) + passMs(passes.back()) <= budgetMs) {
    Pass pass;
    for (int c = 0; c < kCampaignsPerPass; ++c)
      pass.push_back(runUntracedCampaign(shape, config, c));
    passes.push_back(std::move(pass));
  }

  // Every pass must produce the same cells; pass 0 stands for all. Each
  // campaign's and each instance's time is its best over the passes:
  // load from outside the process only ever adds time, so the fastest
  // repeat is the program's.
  const Pass& first = passes.front();
  Digest digest;
  std::int64_t attempted = 0, failed = 0, cells = 0;
  double cost = 0.0, baselineCost = 0.0, bestWallMs = 0.0;
  std::vector<double> setupMs, passWallMs(passes.size(), 0.0), instanceMs;
  for (std::size_t c = 0; c < first.size(); ++c) {
    const CellLedger& ledger = first[c].ledger;
    digest.add(ledger.digest.hex());
    cost += ledger.cost;
    baselineCost += ledger.baselineCost;
    cells += static_cast<std::int64_t>(first[c].cells);
    double best = first[c].wallMs;
    std::vector<double> instances = first[c].instanceMs;
    for (std::size_t p = 0; p < passes.size(); ++p) {
      const UntracedCampaign& run = passes[p][c];
      attempted += run.ledger.attempted;
      failed += run.ledger.failed;
      for (const std::string& problem : run.ledger.problems) report.fail(problem);
      if (run.ledger.costs != ledger.costs)
        report.fail("a repeated pass's cell costs differ from the first pass's");
      setupMs.push_back(run.setupMs);
      passWallMs[p] += run.wallMs;
      best = std::min(best, run.wallMs);
      for (std::size_t i = 0; i < instances.size(); ++i)
        instances[i] = std::min(instances[i], run.instanceMs[i]);
    }
    bestWallMs += best;
    instanceMs.insert(instanceMs.end(), instances.begin(), instances.end());
  }
  const double carbonRatio = baselineCost > 0 ? cost / baselineCost : 0.0;
  std::cerr << shape.name << ": " << passes.size() << " passes of " << cells
            << " cells, " << instanceMs.size() << " instances; best wall "
            << bestWallMs << " ms, median pass wall " << median(passWallMs)
            << " ms; digest " << digest.hex() << "; carbon ratio vs ASAP "
            << carbonRatio << "\n";

  if (!config.trace) {
    report.attempted = attempted;
    report.failed = failed;
    report.set("throughput_per_s",
               static_cast<double>(cells) / (bestWallMs / 1000.0), "1/s");
    report.set("latency_ms_p50", percentile(instanceMs, 0.50), "ms");
    report.set("latency_ms_p90", percentile(instanceMs, 0.90), "ms");
    report.set("success_ratio",
               static_cast<double>(attempted - failed) /
                   static_cast<double>(std::max<std::int64_t>(1, attempted)),
               "ratio");
    report.set("carbon_ratio", carbonRatio, "ratio");
    report.set("peak_rss_mb", peakRssMb(), "MB");
    report.set("setup_s", median(setupMs) / 1000.0, "s");
    return report;
  }

  // Traced replays of the same pass for the other half of the budget (at
  // least one); per-layer figures are per pass.
  LayerClock clock(campaignLayers());
  const unsigned threads = first.front().spec.threads;
  const unsigned maxWorkers =
      std::max(1u, threads == 0 ? std::thread::hardware_concurrency() : threads);
  clock.setLanes(maxWorkers + 1);
  std::vector<LsCounters> lsCounters(maxWorkers + 1);
  TracedPass traced;
  std::vector<double> tracedWallMs;
  const Clock::time_point tracedStart = Clock::now();
  while (tracedWallMs.empty() ||
         (!config.smoke && msBetween(tracedStart, Clock::now()) +
                                   tracedWallMs.back() <= budgetMs)) {
    double wallMs = 0.0;
    for (const UntracedCampaign& reference : first) {
      CellLedger tracedLedger;
      const TracedPass p = runTracedCampaign(shape, config, reference.spec,
                                             clock, lsCounters, tracedLedger);
      wallMs += p.wallMs;
      traced.threadMs += p.threadMs;
      traced.fsyncs += p.fsyncs;
      traced.storeBytes += p.storeBytes;
      attempted += tracedLedger.attempted;
      failed += tracedLedger.failed;
      for (const std::string& problem : tracedLedger.problems) report.fail(problem);
      if (tracedLedger.costs != reference.ledger.costs ||
          tracedLedger.digest.hex() != reference.ledger.digest.hex())
        report.fail("traced run's cell costs differ from the untraced run's");
    }
    tracedWallMs.push_back(wallMs);
  }
  report.attempted = attempted;
  report.failed = failed;

  LsCounters ls;
  for (const LsCounters& c : lsCounters) {
    ls.rounds += c.rounds;
    ls.moves += c.moves;
    ls.roundNodes += c.roundNodes;
  }
  const double n = static_cast<double>(tracedWallMs.size());
  std::cerr << "\nper-layer table (" << shape.name << "; " << n
            << " traced passes; thread-time over all worker lanes):\n";
  clock.printTable(std::cerr, traced.threadMs);

  const auto perPass = [&](const char* layer) { return clock.inclusive(layer) / n; };
  setPerLayer(
      report,
      {{"sim.build_ms", perPass("sim.build")},
       {"sim.build_count", static_cast<double>(clock.count("sim.build")) / n},
       {"core.context.windows_ms", perPass("core.context.windows")},
       {"core.context.refine_ms", perPass("core.context.refine")},
       {"core.context.budget_tree_ms", perPass("core.context.budget_tree")},
       {"core.context.score_order_ms", perPass("core.context.score_order")},
       {"core.greedy_ms", perPass("core.greedy")},
       {"core.ls_ms", perPass("core.ls")},
       {"core.ls_rounds", static_cast<double>(ls.rounds) / n},
       {"core.ls_moves", static_cast<double>(ls.moves) / n},
       {"core.ls_move_yield",
        ls.roundNodes > 0 ? static_cast<double>(ls.moves) / ls.roundNodes
                          : 0.0},
       {"solver.solve_ms", perPass("solver.solve")},
       {"solver.post_ms", perPass("solver.post")},
       {"exp.record_ms", perPass("exp.record")},
       {"exp.store_append_ms", perPass("exp.store_append")},
       {"exp.export_ms", perPass("exp.export")},
       {"exp.fsyncs", static_cast<double>(traced.fsyncs) / n},
       {"exp.store_bytes", static_cast<double>(traced.storeBytes) / n},
       {"traced_wall_ms", traced.threadMs / n},
       {"unattributed_ms", (traced.threadMs - clock.topLevelMs()) / n},
       {"obs.trace_overhead_ratio", median(tracedWallMs) / median(passWallMs)}});
  return report;
}

} // namespace

RunReport runCampaignLs(const RunConfig& config) {
  return runCampaign(kLs, config);
}

RunReport runCampaignGreedyStore(const RunConfig& config) {
  return runCampaign(kGreedyStore, config);
}

} // namespace e2e
