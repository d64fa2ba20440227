// Figure 5 (and appendix Figure 11) — the median cost ratio vs ASAP as the
// deadline tolerance grows. Expected shape (paper): moderate gains at the
// tight deadline; strong gains with slack (down to ≈ 0.15 for slackW at
// 3.0·D).

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace cawo;
  using namespace cawo::bench;

  const BenchConfig cfg = parseBenchConfig(argc, argv);
  const CampaignOutcome outcome =
      runBenchCampaign(benchCampaign(cfg, "bench-grid"), cfg);

  for (const double factor : {1.0, 1.5, 2.0, 3.0}) {
    const CostMatrix m = toCostMatrix(outcome, [&](const InstanceSpec& s) {
      return s.deadlineFactor == factor;
    });
    printHeading(std::cout, "Figure 5 — median cost ratio vs ASAP at " +
                                formatFixed(factor, 1) + "·D");
    printMedianRatios(std::cout, m, "");
  }
  std::cout << "\nExpected shape: ratios fall as the deadline loosens — "
               "every variant benefits from more slack.\n";
  return 0;
}
