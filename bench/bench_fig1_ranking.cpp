// Figure 1 — rank distribution: for which share of the instances each
// algorithm variant was ranked first, second, ... (competition ranking,
// ties share a rank). Expected shape (paper): every CaWoSched variant is
// ranked first far more often than ASAP; ASAP is the worst algorithm on
// ~84 % of the instances; pressWR-LS leads by a small margin.
//
// The solver set comes from the registry: the default --algos=suite is
// the paper's figure set (ASAP + 16 variants); pass e.g.
// --algos=ASAP,press*,greenheft to rank any registered selection. The
// figure is a thin campaign definition: --out=results.json dumps the raw
// (instance, solver) records the table is computed from.

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace cawo;
  using namespace cawo::bench;

  const BenchConfig cfg = parseBenchConfig(argc, argv);
  const CampaignOutcome outcome =
      runBenchCampaign(benchCampaign(cfg, "fig1-ranking"), cfg);
  const CostMatrix m = toCostMatrix(outcome);
  const auto counts = rankDistribution(m);
  const auto total = static_cast<double>(m.numInstances());

  printHeading(std::cout, "Figure 1 — rank distribution over " +
                              std::to_string(m.numInstances()) +
                              " instances");
  TextTable table({"algorithm", "rank1 %", "rank2 %", "rank3 %", "rank4+ %",
                   "worst %"});
  const std::size_t A = m.numAlgorithms();
  for (std::size_t a = 0; a < A; ++a) {
    double r1 = 0, r2 = 0, r3 = 0, r4 = 0, worst = 0;
    for (std::size_t r = 0; r < A; ++r) {
      const double share = 100.0 * counts[a][r] / total;
      if (r == 0) r1 += share;
      else if (r == 1) r2 += share;
      else if (r == 2) r3 += share;
      else r4 += share;
      if (r == A - 1) worst += share;
    }
    // "worst" = share of instances on which no algorithm ranked below it.
    int worstCount = 0;
    for (std::size_t i = 0; i < m.numInstances(); ++i) {
      bool isWorst = true;
      for (std::size_t b = 0; b < A; ++b)
        if (m.costs[i][b] > m.costs[i][a]) isWorst = false;
      if (isWorst) ++worstCount;
    }
    table.addRow({m.algorithms[a], formatFixed(r1, 1), formatFixed(r2, 1),
                  formatFixed(r3, 1), formatFixed(r4, 1),
                  formatFixed(100.0 * worstCount / total, 1)});
  }
  table.print(std::cout);

  std::cout << "\nExpected shape: all 16 variants rank first much more often "
               "than ASAP;\nASAP is worst on the large majority of "
               "instances (~84 % in the paper).\n";
  return 0;
}
