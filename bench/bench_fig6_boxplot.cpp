// Figure 6 — boxplots of the cost ratio vs ASAP per algorithm variant,
// outliers listed separately. Expected shape (paper): boxes mostly between
// ≈ 0.25 and ≈ 0.9 with medians around 0.6; a few outliers above 1.0 where
// ASAP happens to be optimal (profiles with green power at the start).

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace cawo;
  using namespace cawo::bench;

  const BenchConfig cfg = parseBenchConfig(argc, argv);
  const CampaignOutcome outcome =
      runBenchCampaign(benchCampaign(cfg, "bench-grid"), cfg);
  const CostMatrix m = toCostMatrix(outcome);

  printHeading(std::cout, "Figure 6 — boxplot of cost ratios vs ASAP");
  TextTable table({"algorithm", "min", "q1", "median", "q3", "max",
                   "#outliers", "worst outlier"});
  for (std::size_t a = 1; a < m.numAlgorithms(); ++a) {
    const auto ratios = ratiosVsBaseline(m, 0, a);
    if (ratios.empty()) continue;
    const BoxStats s = boxStats(ratios);
    double worstOutlier = 0.0;
    for (const double o : s.outliers) worstOutlier = std::max(worstOutlier, o);
    table.addRow({m.algorithms[a], formatFixed(s.min, 3),
                  formatFixed(s.q1, 3), formatFixed(s.median, 3),
                  formatFixed(s.q3, 3), formatFixed(s.max, 3),
                  std::to_string(s.outliers.size()),
                  s.outliers.empty() ? "-" : formatFixed(worstOutlier, 3)});
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: most mass between 0.25 and 0.9; medians "
               "near 0.6; occasional >1.0 outliers where ASAP is already "
               "optimal.\n";
  return 0;
}
