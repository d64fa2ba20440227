// Figure 3 (and appendix Figure 10) — performance profiles split by the
// deadline tolerance factor (1.0, 1.5, 2.0, 3.0 × ASAP makespan D).
// Expected shape (paper): pressR/pressWR lead under the tight deadline;
// slack variants clearly take over as the deadline loosens.

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace cawo;
  using namespace cawo::bench;

  const BenchConfig cfg = parseBenchConfig(argc, argv);
  const CampaignOutcome outcome =
      runBenchCampaign(benchCampaign(cfg, "bench-grid"), cfg);
  const std::vector<double> taus{0.5, 0.8, 1.0};

  for (const double factor : {1.0, 1.5, 2.0, 3.0}) {
    const CostMatrix m = toCostMatrix(outcome, [&](const InstanceSpec& s) {
      return s.deadlineFactor == factor;
    });
    const auto profile = performanceProfile(m, taus);

    printHeading(std::cout, "Figure 3 — performance profile at deadline " +
                                formatFixed(factor, 1) + "·D (" +
                                std::to_string(m.numInstances()) +
                                " instances)");
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
  }
  std::cout << "\nExpected shape: press variants strongest at 1.0·D; slack "
               "variants surpass them at 2.0·D and 3.0·D.\n";
  return 0;
}
