// Figure 15 — cost ratios vs ASAP split by the power-profile scenario.
// Expected shape (paper): the heuristics achieve their biggest gains on
// S1 (solar day) and S3 (24 h sine) where little green power is available
// at the beginning; ASAP is relatively stronger on S2 (green at the start)
// and S4 (constant).

// The figure is a thin campaign definition over the paper grid; the
// scenario split is also available as the campaign summary's per-scenario
// median ratios (--out=results.json, "median_ratio_by_scenario"). The
// scenario axis is open: --scenarios accepts any registered profile spec
// ("all" keeps the paper's S1–S4), and the figure prints one block per
// distinct spec in the campaign.

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace cawo;
  using namespace cawo::bench;

  const BenchConfig cfg = parseBenchConfig(argc, argv);
  const CampaignOutcome outcome =
      runBenchCampaign(benchCampaign(cfg, "fig15-by-scenario"), cfg);
  for (const std::string& scenario : outcome.scenarios) {
    const CostMatrix m = toCostMatrix(outcome, [&](const InstanceSpec& s) {
      return s.scenario == scenario;
    });
    printHeading(std::cout, "Figure 15 — median cost ratio vs "
                            "ASAP, scenario " + scenario);
    printMedianRatios(std::cout, m, "");
  }
  std::cout << "\nExpected shape: lowest ratios (biggest savings) on S1 and "
               "S3; ASAP comparatively strong on S2 and S4.\n";
  return 0;
}
