// Figure 2 — performance profiles over all instances: for each algorithm
// the fraction of instances whose ratio (best cost / own cost) is ≥ τ.
// Higher curves are better. Expected shape (paper): pressWR-LS has the
// highest value at τ = 1.0; slack-based variants overtake the pressure
// variants for smaller τ.

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace cawo;
  using namespace cawo::bench;

  const BenchConfig cfg = parseBenchConfig(argc, argv);
  const CampaignOutcome outcome =
      runBenchCampaign(benchCampaign(cfg, "bench-grid"), cfg);
  const CostMatrix m = toCostMatrix(outcome);

  const std::vector<double> taus{0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0};
  const auto profile = performanceProfile(m, taus);

  printHeading(std::cout, "Figure 2 — performance profiles (fraction of "
                          "instances with best/own >= tau)");
  std::vector<std::string> headers{"algorithm"};
  for (const double t : taus) headers.push_back("tau=" + formatFixed(t, 1));
  TextTable table(headers);
  for (std::size_t a = 0; a < m.numAlgorithms(); ++a) {
    std::vector<std::string> row{m.algorithms[a]};
    for (std::size_t t = 0; t < taus.size(); ++t)
      row.push_back(formatFixed(profile[a][t], 3));
    table.addRow(row);
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: a higher curve is better; ASAP is clearly "
               "below every variant,\npressWR-LS leads at tau=1.0.\n";
  return 0;
}
