#pragma once

// Shared configuration and helpers for the per-figure bench binaries.
//
// Every binary runs without arguments at a scaled-down default (minutes,
// not hours — see DESIGN.md, substitutions) and accepts flags to approach
// paper scale:
//   --tasks=N        base workflow size (default 90)
//   --clusters=a,b   nodes per processor type (default 1,2 — the paper
//                    uses 12 and 24)
//   --intervals=J    power-profile intervals (default 16)
//   --seeds=K        instances per (family, cluster) cell (default 1)
//   --seed=S         base RNG seed (default 1)
//   --algos=SEL      solver selection from the registry: "suite" (ASAP +
//                    the 16 CaWoSched variants — the paper's figure set),
//                    "all", a glob, or a comma list (default "suite")
//   --scenarios=SEL  profile-source selection: "all" (the paper's S1–S4)
//                    or any comma list of registered specs, e.g.
//                    "S1,sine:period=24,amp=0.5,duck" (default "all")
//   --out=FILE       additionally write the run as a campaign JSON result
//                    file (one record per instance × solver cell)
//   --full           paper-leaning preset (--tasks=400 --clusters=2,4
//                    --seeds=2) — still laptop-sized
//
// The figure binaries are thin campaign definitions: they translate this
// config into a CampaignSpec, run it through the campaign engine
// (src/exp), and keep only the figure-specific presentation here.

#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/campaign_runner.hpp"
#include "sim/instance.hpp"
#include "sim/runner.hpp"
#include "sim/stats.hpp"
#include "sim/table.hpp"
#include "solver/registry.hpp"
#include "util/cli.hpp"
#include "util/require.hpp"
#include "util/strings.hpp"

namespace cawo::bench {

struct BenchConfig {
  int tasks = 90;
  std::vector<int> clusters{1, 2};
  int numIntervals = 16;
  int seedsPerCell = 1;
  std::uint64_t baseSeed = 1;
  std::string algos = "suite";    ///< registry selection (see campaign.hpp)
  std::string scenarios = "all";  ///< profile-source specs ("all" = S1–S4)
  std::string out;                ///< campaign JSON result file ("" = none)
};

inline BenchConfig parseBenchConfig(int argc, const char* const* argv) {
  const CliArgs args(argc, argv,
                     {"tasks", "clusters", "intervals", "seeds", "seed",
                      "algos", "scenarios", "out", "full"});
  BenchConfig cfg;
  if (args.has("full")) {
    cfg.tasks = 400;
    cfg.clusters = {2, 4};
    cfg.seedsPerCell = 2;
  }
  cfg.tasks = static_cast<int>(args.getInt("tasks", cfg.tasks));
  cfg.numIntervals = static_cast<int>(args.getInt("intervals",
                                                  cfg.numIntervals));
  cfg.seedsPerCell = static_cast<int>(args.getInt("seeds", cfg.seedsPerCell));
  cfg.baseSeed = static_cast<std::uint64_t>(args.getInt("seed", 1));
  cfg.algos = args.getString("algos", cfg.algos);
  cfg.scenarios = args.getString("scenarios", cfg.scenarios);
  cfg.out = args.getString("out", cfg.out);
  if (args.has("clusters")) {
    cfg.clusters.clear();
    for (const std::string& c : split(args.getString("clusters", ""), ','))
      cfg.clusters.push_back(std::stoi(c));
  }
  return cfg;
}

/// The paper's grid as a campaign: every workflow family on every cluster,
/// each with all 16 power profiles (4 scenarios × 4 deadline factors);
/// bacass — the small real-world pipeline — is scaled to a third of the
/// base task count. Figure binaries tweak the returned spec (families,
/// task axis) and hand it to runBenchCampaign.
inline CampaignSpec benchCampaign(const BenchConfig& cfg,
                                  const std::string& name) {
  CampaignSpec spec;
  spec.name = name;
  spec.families = {WorkflowFamily::Atacseq, WorkflowFamily::Bacass,
                   WorkflowFamily::Eager, WorkflowFamily::Methylseq};
  spec.tasks = {cfg.tasks};
  spec.bacassTasks = std::max(20, cfg.tasks / 3);
  spec.nodesPerType = cfg.clusters;
  // Deadline factors keep the paper defaults (×4); the scenario axis
  // resolves --scenarios through the profile-source registry ("all" is
  // the paper's S1–S4, i.e. the historical default).
  setCampaignKey(spec, "scenarios", cfg.scenarios);
  spec.seeds.clear();
  for (int s = 0; s < cfg.seedsPerCell; ++s)
    spec.seeds.push_back(cfg.baseSeed + static_cast<std::uint64_t>(s) * 1000);
  spec.numIntervals = cfg.numIntervals;
  spec.algos = cfg.algos;
  return spec;
}

/// A solver that ran must return a valid schedule: an infeasible record
/// is a library bug, never a data point.
inline void requireFeasibleRecords(const CampaignOutcome& outcome) {
  for (const CampaignRecord& r : outcome.records)
    CAWO_ASSERT(r.skipped || r.feasible, "solver " + r.solver +
                                             " produced an invalid schedule "
                                             "on " + r.instance);
}

/// Run a campaign for a figure binary: announce the size, execute, check
/// every schedule, and honour --out by writing the JSON result file next
/// to the figure text.
inline CampaignOutcome runBenchCampaign(const CampaignSpec& spec,
                                        const BenchConfig& cfg) {
  std::cout << "running " << spec.cellCount() << " instances × "
            << campaignSolverNames(spec).size() << " solvers ...\n";
  CampaignOutcome outcome = runCampaign(spec);
  requireFeasibleRecords(outcome);
  if (!cfg.out.empty()) {
    writeCampaignJsonFile(cfg.out, outcome);
    std::cout << "campaign records written to " << cfg.out << "\n";
  }
  return outcome;
}

/// Median cost ratio vs ASAP (index 0) for every CaWoSched variant.
inline void printMedianRatios(std::ostream& out, const CostMatrix& m,
                              const std::string& title) {
  std::vector<std::string> labels;
  std::vector<double> values;
  for (std::size_t a = 1; a < m.numAlgorithms(); ++a) {
    const auto ratios = ratiosVsBaseline(m, 0, a);
    if (ratios.empty()) continue;
    labels.push_back(m.algorithms[a]);
    values.push_back(medianOf(ratios));
  }
  printBarChart(out, title, labels, values);
}

} // namespace cawo::bench
