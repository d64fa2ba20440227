// Extension study (the paper's Section 7 future work): does a carbon-aware
// *mapping* pass help on top of carbon-aware *scheduling*? Three pipelines
// are compared on the same instances:
//   1. HEFT mapping      + ASAP          (the paper's baseline)
//   2. HEFT mapping      + pressWR-LS    (the paper's best pipeline)
//   3. GreenHEFT mapping + pressWR-LS    (the envisioned two-pass approach)
// Finding (see EXPERIMENTS.md): with the naive convex-combination scoring
// (alpha = 0.5), pipeline (3) does NOT beat (2) — biasing the mapping
// toward frugal processors stretches the makespan into darker tail
// intervals and costs more than it saves. This quantifies why the paper
// flags the carbon-aware HEFT extension as an open problem rather than a
// straightforward add-on; use --tasks/--seed and the "greenheft[alpha]"
// bracket parameter to explore the trade-off.
//
// All three pipelines run through the unified solver registry: "ASAP" and
// "pressWR-LS" on the fixed HEFT mapping, and the re-mapping "greenheft"
// solver (which keeps the instance's absolute deadline when feasible and
// extends the profile band over its own, possibly longer, horizon).

#include "bench_common.hpp"

#include <algorithm>

#include "util/require.hpp"

int main(int argc, char** argv) {
  using namespace cawo;
  using namespace cawo::bench;

  const BenchConfig cfg = parseBenchConfig(argc, argv);
  const SolverRegistry& registry = SolverRegistry::global();

  // The scenario axis honours --scenarios like every other bench:
  // "all" is the paper's S1–S4 grid, any comma list of registered
  // profile specs works (the per-scenario table gets one row per spec).
  const std::vector<std::string> scenarioAxis =
      cfg.scenarios == "all" ? paperScenarioNames()
                             : splitSpecList(cfg.scenarios);

  std::vector<double> ratioHeft, ratioGreen;
  std::vector<std::vector<double>> perScenarioHeft(scenarioAxis.size()),
      perScenarioGreen(scenarioAxis.size());

  for (const WorkflowFamily family :
       {WorkflowFamily::Atacseq, WorkflowFamily::Eager}) {
    // The paper's 16-profile grid, generalised to the configured scenario
    // axis. Built by hand rather than as a campaign: every instance gets
    // its own `link-seed` below, which a campaign cannot express.
    std::vector<InstanceSpec> grid;
    for (const std::string& scenario : scenarioAxis) {
      for (const double factor : {1.0, 1.5, 2.0, 3.0}) {
        InstanceSpec spec;
        spec.family = family;
        spec.targetTasks = cfg.tasks;
        spec.nodesPerType = cfg.clusters.front();
        spec.scenario = scenario;
        spec.deadlineFactor = factor;
        spec.numIntervals = cfg.numIntervals;
        spec.seed = cfg.baseSeed;
        grid.push_back(spec);
      }
    }
    for (const InstanceSpec& spec : grid) {
      const Instance inst = buildInstance(spec);

      SolveRequest request;
      request.gc = &inst.gc;
      request.profile = &inst.profile;
      request.deadline = inst.deadline;
      request.graph = &inst.graph;
      request.platform = &inst.platform;
      request.options.setDouble("alpha", 0.5);
      request.options.set("variant", "pressWR-LS");
      request.options.setInt(
          "link-seed",
          static_cast<std::int64_t>(spec.seed ^ 0x11CC77EEULL));

      // Pipelines 1+2: fixed HEFT mapping (the standard Instance build).
      const Cost asap = registry.create("ASAP")->solve(request).cost;
      const Cost heftCost =
          registry.create("pressWR-LS")->solve(request).cost;

      // Pipeline 3: carbon-aware re-mapping, then the same variant.
      const Cost greenCost =
          registry.create("greenheft")->solve(request).cost;

      if (asap == 0) continue;
      const auto scenarioIdx = static_cast<std::size_t>(
          std::find(scenarioAxis.begin(), scenarioAxis.end(),
                    spec.scenario) -
          scenarioAxis.begin());
      CAWO_ASSERT(scenarioIdx < scenarioAxis.size(),
                  "instance scenario \"" + spec.scenario +
                      "\" missing from the configured axis");
      ratioHeft.push_back(static_cast<double>(heftCost) /
                          static_cast<double>(asap));
      ratioGreen.push_back(static_cast<double>(greenCost) /
                           static_cast<double>(asap));
      perScenarioHeft[scenarioIdx].push_back(ratioHeft.back());
      perScenarioGreen[scenarioIdx].push_back(ratioGreen.back());
    }
  }

  printHeading(std::cout, "Extension — two-pass carbon-aware HEFT "
                          "(Section 7 future work)");
  TextTable table({"pipeline", "median ratio vs ASAP"});
  table.addRow({"HEFT + pressWR-LS", formatFixed(medianOf(ratioHeft), 3)});
  table.addRow(
      {"GreenHEFT + pressWR-LS", formatFixed(medianOf(ratioGreen), 3)});
  table.print(std::cout);

  TextTable byScenario({"scenario", "HEFT+LS", "GreenHEFT+LS"});
  for (std::size_t sIdx = 0; sIdx < scenarioAxis.size(); ++sIdx) {
    if (perScenarioHeft[sIdx].empty()) continue;
    byScenario.addRow({scenarioAxis[sIdx],
                       formatFixed(medianOf(perScenarioHeft[sIdx]), 3),
                       formatFixed(medianOf(perScenarioGreen[sIdx]), 3)});
  }
  byScenario.print(std::cout);
  std::cout << "\nFinding: the naive two-pass pipeline does not beat "
               "HEFT+CaWoSched here — the carbon-biased mapping trades "
               "makespan for local greenness and loses it back at the "
               "horizon's dark tail. The paper's future-work problem is "
               "genuinely open.\n";
  return 0;
}
