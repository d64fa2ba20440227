// Figure 4 — the median over all instances of the cost ratio
// (variant carbon cost) / (ASAP carbon cost). Expected shape (paper): all
// variants land close together around ≈ 0.6 (i.e. ~40 % carbon savings);
// pressure-based variants slightly ahead, pressWR-LS best at ≈ 0.58.

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace cawo;
  using namespace cawo::bench;

  const BenchConfig cfg = parseBenchConfig(argc, argv);
  const CampaignOutcome outcome =
      runBenchCampaign(benchCampaign(cfg, "bench-grid"), cfg);
  const CostMatrix m = toCostMatrix(outcome);

  printHeading(std::cout,
               "Figure 4 — median cost ratio vs ASAP (lower is better)");
  printMedianRatios(std::cout, m, "");
  std::cout << "\nExpected shape: medians clustered around ~0.6; press "
               "variants a touch lower than slack variants.\n";
  return 0;
}
