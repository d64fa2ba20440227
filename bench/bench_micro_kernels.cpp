// Microbenchmarks (google-benchmark) for the library's hot kernels:
// carbon-cost evaluation, EST/LST passes, interval refinement, greedy
// scheduling, local search, profile generation through the source
// registry, and the two incremental data structures.
//
// --out=FILE (this repo's spelling across all bench binaries) writes the
// run as google-benchmark JSON in addition to the console table.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "core/asap.hpp"
#include "core/budget_tree.hpp"
#include "core/carbon_cost.hpp"
#include "core/est_lst.hpp"
#include "core/greedy.hpp"
#include "core/interval_refinement.hpp"
#include "core/local_search.hpp"
#include "core/power_timeline.hpp"
#include "core/schedule.hpp"
#include "core/solve_context.hpp"
#include "exp/campaign.hpp"
#include "exp/store.hpp"
#include "heft/heft.hpp"
#include "obs/trace.hpp"
#include "profile/profile_io.hpp"
#include "profile/profile_source.hpp"
#include "sim/instance.hpp"
#include "util/rng.hpp"
#include "workflow/generators.hpp"

namespace {

using namespace cawo;

Instance makeInstance(int tasks) {
  InstanceSpec spec;
  spec.family = WorkflowFamily::Atacseq;
  spec.targetTasks = tasks;
  spec.nodesPerType = 1;
  spec.scenario = "S1";
  spec.deadlineFactor = 2.0;
  spec.numIntervals = 16;
  spec.seed = 99;
  return buildInstance(spec);
}

void BM_EvaluateCost(benchmark::State& state) {
  const Instance inst = makeInstance(static_cast<int>(state.range(0)));
  const Schedule s = scheduleAsap(inst.gc);
  for (auto _ : state)
    benchmark::DoNotOptimize(evaluateCost(inst.gc, inst.profile, s));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EvaluateCost)->Arg(50)->Arg(200)->Arg(800)->Complexity();

void BM_EstLst(benchmark::State& state) {
  const Instance inst = makeInstance(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(computeEst(inst.gc));
    benchmark::DoNotOptimize(computeLst(inst.gc, inst.deadline));
  }
}
BENCHMARK(BM_EstLst)->Arg(50)->Arg(200)->Arg(800);

// -----------------------------------------------------------------------
// Window maintenance: the incremental WindowState worklist propagation
// replaying a full placement trace (every node pinned at its current EST
// in topological order). Recorded via --out=BENCH_windows.json (see
// bench/README.md).
// -----------------------------------------------------------------------
void BM_WindowsIncremental(benchmark::State& state) {
  const Instance inst = makeInstance(static_cast<int>(state.range(0)));
  const SolveContext ctx(inst.gc, inst.profile, inst.deadline);
  ctx.initialEst(); // memoize outside the timed region, like the runners do
  ctx.initialLst();
  for (auto _ : state) {
    WindowState ws = ctx.windowState();
    for (const TaskId v : inst.gc.topoOrder()) ws.place(v, ws.est(v));
    benchmark::DoNotOptimize(ws);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_WindowsIncremental)->Arg(100)->Arg(1000)->Arg(5000)
    ->Unit(benchmark::kMillisecond)->Complexity();

// Greedy end to end (pressWR — the most work per placement) on the same
// instances, pinning the full-pipeline effect of the incremental engine.
void BM_GreedySched(benchmark::State& state) {
  const Instance inst = makeInstance(static_cast<int>(state.range(0)));
  const SolveContext ctx(inst.gc, inst.profile, inst.deadline);
  GreedyOptions opts{BaseScore::Pressure, true, true, 3};
  for (auto _ : state)
    benchmark::DoNotOptimize(scheduleGreedy(ctx, opts));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GreedySched)->Arg(100)->Arg(1000)->Arg(5000)
    ->Unit(benchmark::kMillisecond)->Complexity();

// -----------------------------------------------------------------------
// Telemetry overhead on the greedy hot path (see docs/observability.md).
// Arg(1) selects the trace state: 0 = Off (span sites are one predicted
// branch each — must sit within noise of the untraced BM_GreedySched
// row), 1 = Idle (timestamps taken, nothing stored), 2 = Recording
// (events appended to the per-thread buffer). The recorder is drained
// between iterations outside the timed region so Recording measures
// steady-state append cost, not reallocation of an ever-growing buffer.
// Trajectory recorded via --out=BENCH_obs.json (see bench/README.md).
// -----------------------------------------------------------------------
void BM_TraceOverhead(benchmark::State& state) {
  const Instance inst = makeInstance(static_cast<int>(state.range(0)));
  const SolveContext ctx(inst.gc, inst.profile, inst.deadline);
  GreedyOptions opts{BaseScore::Pressure, true, true, 3};
  auto& recorder = obs::TraceRecorder::global();
  const auto traceState = static_cast<obs::TraceState>(state.range(1));
  recorder.setState(traceState);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduleGreedy(ctx, opts));
    if (traceState == obs::TraceState::Recording) {
      state.PauseTiming();
      recorder.clear();
      state.ResumeTiming();
    }
  }
  recorder.setState(obs::TraceState::Off);
  recorder.clear();
  state.SetLabel(traceState == obs::TraceState::Off        ? "off"
                 : traceState == obs::TraceState::Idle     ? "idle"
                                                           : "recording");
}
BENCHMARK(BM_TraceOverhead)
    ->ArgsProduct({{5000}, {0, 1, 2}})
    ->Unit(benchmark::kMillisecond);

// -----------------------------------------------------------------------
// Parallel solve core (see DESIGN.md, "Parallel solve core"). The kernel
// produces bit-identical schedules at every thread count — the benchmark
// measures only how fast the same bytes arrive. Threads sweep
// {1, 4, hardware}; on single-core boxes the three rows coincide, which
// is itself the interesting datum (no overhead when there is nothing to
// win).
// -----------------------------------------------------------------------

// Best-of-8 multi-start local search; restart 0 is the unperturbed climb,
// restarts 1..7 run on independent RNG streams, the merge is by (cost,
// restart index).
void BM_LocalSearchRestarts(benchmark::State& state) {
  const Instance inst = makeInstance(static_cast<int>(state.range(0)));
  GreedyOptions gopts{BaseScore::Pressure, true, true, 3};
  const Schedule base =
      scheduleGreedy(inst.gc, inst.profile, inst.deadline, gopts);
  LocalSearchOptions opts;
  opts.restarts = 8;
  opts.threads = static_cast<unsigned>(state.range(1));
  for (auto _ : state) {
    Schedule s = base;
    localSearchRestarts(inst.gc, inst.profile, inst.deadline, s, opts);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_LocalSearchRestarts)
    ->ArgsProduct({{200, 1000, 5000}, {1, 4, 0 /* 0 = hardware */}})
    ->Unit(benchmark::kMillisecond);

void BM_Heft(benchmark::State& state) {
  WorkflowGenOptions opts;
  opts.targetTasks = static_cast<int>(state.range(0));
  opts.seed = 3;
  const TaskGraph g = generateWorkflow(WorkflowFamily::Methylseq, opts);
  const Platform pf = Platform::scaled(2);
  for (auto _ : state) benchmark::DoNotOptimize(runHeft(g, pf));
}
BENCHMARK(BM_Heft)->Arg(50)->Arg(200)->Arg(800);

void BM_Refinement(benchmark::State& state) {
  const Instance inst = makeInstance(static_cast<int>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(refineIntervals(inst.gc, inst.profile, 3));
}
BENCHMARK(BM_Refinement)->Arg(50)->Arg(200);

void BM_GreedyPressWR(benchmark::State& state) {
  const Instance inst = makeInstance(static_cast<int>(state.range(0)));
  GreedyOptions opts{BaseScore::Pressure, true, true, 3};
  for (auto _ : state)
    benchmark::DoNotOptimize(
        scheduleGreedy(inst.gc, inst.profile, inst.deadline, opts));
}
BENCHMARK(BM_GreedyPressWR)->Arg(50)->Arg(200);

void BM_LocalSearch(benchmark::State& state) {
  const Instance inst = makeInstance(static_cast<int>(state.range(0)));
  GreedyOptions opts{BaseScore::Pressure, true, true, 3};
  const Schedule base =
      scheduleGreedy(inst.gc, inst.profile, inst.deadline, opts);
  for (auto _ : state) {
    Schedule s = base;
    localSearch(inst.gc, inst.profile, inst.deadline, s);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_LocalSearch)->Arg(50)->Arg(200)->Arg(1000)->Arg(5000);

void BM_BudgetTreeOps(benchmark::State& state) {
  const Time horizon = 100000;
  std::vector<Time> begins;
  std::vector<Power> budgets;
  for (Time t = 0; t < horizon; t += 10) {
    begins.push_back(t);
    budgets.push_back(t % 97);
  }
  Rng rng(5);
  BudgetTree tree(begins, budgets, horizon);
  for (auto _ : state) {
    const Time a = rng.uniformInt(0, horizon - 100);
    tree.consume(a, a + 50, 3);
    benchmark::DoNotOptimize(tree.maxInRange(a, a + 5000));
  }
}
BENCHMARK(BM_BudgetTreeOps);

// Profile generation through the ProfileSourceRegistry: spec parse +
// source dispatch + shape sampling, across interval counts (state.range).
void BM_GenerateProfile(benchmark::State& state, const std::string& spec) {
  ProfileRequest req;
  req.horizon = 24 * 3600;
  req.sumIdle = 100;
  req.sumWork = 200;
  req.numIntervals = static_cast<int>(state.range(0));
  req.seed = 11;
  for (auto _ : state)
    benchmark::DoNotOptimize(generateProfile(spec, req));
  state.SetComplexityN(state.range(0));
}
BENCHMARK_CAPTURE(BM_GenerateProfile, S1, "S1")
    ->Arg(24)->Arg(288)->Arg(2880)->Complexity();
BENCHMARK_CAPTURE(BM_GenerateProfile, sine,
                  "sine:period=24,amp=0.5,phase=6+noise=0.1")
    ->Arg(24)->Arg(288)->Arg(2880)->Complexity();
BENCHMARK_CAPTURE(BM_GenerateProfile, duck, "duck")
    ->Arg(24)->Arg(288)->Arg(2880)->Complexity();

void BM_GenerateProfileTrace(benchmark::State& state) {
  const std::string path = "/tmp/cawo_bench_trace.csv";
  {
    PowerProfile day;
    for (int h = 0; h < 24; ++h)
      day.appendInterval(3600, 100 + 80 * (h % 7));
    writeProfileCsvFile(path, day);
  }
  ProfileRequest req;
  req.horizon = static_cast<Time>(state.range(0)) * 24 * 3600;
  req.sumIdle = 100;
  req.sumWork = 200;
  for (auto _ : state)
    benchmark::DoNotOptimize(generateProfile(
        "trace:" + path + ",repeat=1,normalize=1", req));
}
BENCHMARK(BM_GenerateProfileTrace)->Arg(1)->Arg(7);

// -----------------------------------------------------------------------
// Timeline candidate probes: one local-search-shaped scan — one source
// interval, `width` contiguous candidate targets — served from one prefix
// table (peekMoveDeltas); items/s is candidates per second. Recorded via
// --out=BENCH_timeline.json (see bench/README.md).
// -----------------------------------------------------------------------
void BM_TimelineBatch(benchmark::State& state) {
  PowerProfile profile;
  for (int j = 0; j < 24; ++j) profile.appendInterval(100, j * 7 % 50);
  PowerTimeline timeline(profile, 100);
  Rng loads(9);
  for (int i = 0; i < 200; ++i) {
    const Time a = loads.uniformInt(0, 2300);
    timeline.addLoad(a, a + loads.uniformInt(1, 80), loads.uniformInt(1, 20));
  }
  const Time width = state.range(0);
  constexpr Time kLen = 60;
  Rng rng(17);
  std::vector<CandidateInterval> cands;
  std::vector<Cost> deltas;
  PowerTimeline::PeekScratch scratch;
  for (auto _ : state) {
    const Time cur = rng.uniformInt(0, profile.horizon() - kLen);
    const Time lo = rng.uniformInt(0, profile.horizon() - kLen - width);
    cands.clear();
    for (Time t = lo; t < lo + width; ++t) cands.push_back({t, t + kLen});
    deltas.resize(cands.size());
    timeline.peekMoveDeltas(cur, cur + kLen, 5, cands, scratch, deltas);
    Cost best = 0;
    for (const Cost d : deltas) best = std::min(best, d);
    benchmark::DoNotOptimize(best);
  }
  state.SetItemsProcessed(state.iterations() * width);
}
BENCHMARK(BM_TimelineBatch)->Arg(64)->Arg(512);

// -----------------------------------------------------------------------
// Campaign result store: append throughput (records/s streamed through
// the group-commit path) and query scan rate over a prebuilt store. The
// records are fabricated — no solving — so the kernels isolate the store
// itself at 10^4..10^6 cells. peak_rss_mb (getrusage high-water) is the
// flat-memory evidence: it must not scale with the cell count. The perf
// trajectory is recorded via --out=BENCH_store.json (see bench/README.md).
// -----------------------------------------------------------------------
CampaignSpec storeBenchSpec(std::int64_t targetCells) {
  CampaignSpec spec;
  spec.name = "bench-store";
  spec.tasks = {40};
  spec.scenarios = {"S1", "S2"};
  spec.deadlineFactors = {1.5, 2.0};
  spec.numIntervals = 8;
  spec.algos = "ASAP,slack"; // 2 cells per instance, nothing is solved
  const std::int64_t grid = 2 * 2; // instances per seed
  const std::int64_t instances = (targetCells + 1) / 2;
  spec.seeds.clear();
  for (std::int64_t s = 0; s < (instances + grid - 1) / grid; ++s)
    spec.seeds.push_back(static_cast<std::uint64_t>(s + 1));
  return spec;
}

void fillFabricatedGroup(const InstanceSpec& ispec,
                         const std::vector<std::string>& labels,
                         std::vector<CampaignRecord>& group) {
  for (std::size_t c = 0; c < labels.size(); ++c) {
    CampaignRecord& r = group[c];
    r.spec = ispec;
    r.instance = ispec.label();
    r.deadline = 100000;
    r.asapMakespanD = 50000;
    r.numNodes = 64;
    r.instanceHash = instanceSpecHash(ispec);
    r.lowerBound = 1000;
    r.solver = labels[c];
    r.cost = static_cast<Cost>(2000 + 13 * c + ispec.seed % 97);
    r.wallMs = 1.25;
    r.feasible = true;
    r.hasBaseline = true;
    r.baselineCost = 2000;
    r.ratioVsBaseline =
        static_cast<double>(r.cost) / static_cast<double>(r.baselineCost);
  }
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0; // KB on Linux
}

void BM_StoreAppend(benchmark::State& state) {
  const CampaignSpec spec = storeBenchSpec(state.range(0));
  const std::string dir = "/tmp/cawo_bench_store_append";
  std::size_t cells = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(dir);
    state.ResumeTiming();
    CampaignStoreWriter store(dir, spec);
    std::vector<CampaignRecord> group(store.stride());
    for (std::size_t i = 0; i < store.numInstances(); ++i) {
      fillFabricatedGroup(store.instances()[i], store.cellLabels(), group);
      store.appendInstance(i, group.data(), group.size());
    }
    store.flush();
    cells = store.presentCells();
  }
  std::filesystem::remove_all(dir);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cells));
  state.counters["cells"] = static_cast<double>(cells);
  state.counters["peak_rss_mb"] = peakRssMb();
}
BENCHMARK(BM_StoreAppend)
    ->Arg(10000)->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

const std::string& prebuiltStore(std::int64_t targetCells) {
  static std::map<std::int64_t, std::string> dirs;
  const auto it = dirs.find(targetCells);
  if (it != dirs.end()) return it->second;
  const CampaignSpec spec = storeBenchSpec(targetCells);
  const std::string dir =
      "/tmp/cawo_bench_store_query_" + std::to_string(targetCells);
  std::filesystem::remove_all(dir);
  CampaignStoreWriter store(dir, spec);
  std::vector<CampaignRecord> group(store.stride());
  for (std::size_t i = 0; i < store.numInstances(); ++i) {
    fillFabricatedGroup(store.instances()[i], store.cellLabels(), group);
    store.appendInstance(i, group.data(), group.size());
  }
  store.flush();
  return dirs.emplace(targetCells, dir).first->second;
}

void BM_StoreQuery(benchmark::State& state) {
  CampaignStoreReader reader(prebuiltStore(state.range(0)));
  StoreQuery query; // label glob + scenario prune, then parse the matches
  query.solvers = {"sl*"};
  query.scenarios = {"S2"};
  std::size_t matched = 0;
  for (auto _ : state) {
    matched = queryStore(reader, query,
                         [](std::size_t, std::size_t,
                            const CampaignRecord& r, const std::string&) {
                           benchmark::DoNotOptimize(r.cost);
                         });
    benchmark::DoNotOptimize(matched);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(matched));
  state.counters["matched"] = static_cast<double>(matched);
  state.counters["present"] = static_cast<double>(reader.presentCells());
  state.counters["peak_rss_mb"] = peakRssMb();
}
BENCHMARK(BM_StoreQuery)
    ->Arg(10000)->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

} // namespace

// Like BENCHMARK_MAIN(), but `--out=FILE` (the flag every other bench
// binary uses for machine-readable results) is translated into
// google-benchmark's --benchmark_out/--benchmark_out_format pair.
int main(int argc, char** argv) {
  std::vector<std::string> storage;
  storage.reserve(static_cast<std::size_t>(argc) + 1);
  for (int i = 0; i < argc; ++i) {
    constexpr const char* kOut = "--out=";
    if (std::strncmp(argv[i], kOut, std::strlen(kOut)) == 0) {
      storage.push_back(std::string("--benchmark_out=") +
                        (argv[i] + std::strlen(kOut)));
      storage.push_back("--benchmark_out_format=json");
    } else {
      storage.push_back(argv[i]);
    }
  }
  std::vector<char*> args;
  args.reserve(storage.size());
  for (std::string& s : storage) args.push_back(s.data());
  int newArgc = static_cast<int>(args.size());
  benchmark::Initialize(&newArgc, args.data());
  if (benchmark::ReportUnrecognizedArguments(newArgc, args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
