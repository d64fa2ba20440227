// Figure 13 — the evolution of the running time as the deadline tolerance
// grows. Expected shape (paper): runtime is driven by graph size and
// increases only slightly with the deadline — the heuristics reason over
// graph structure, not over the whole time horizon.

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace cawo;
  using namespace cawo::bench;

  const BenchConfig cfg = parseBenchConfig(argc, argv);
  const CampaignOutcome outcome =
      runBenchCampaign(benchCampaign(cfg, "bench-grid"), cfg);

  printHeading(std::cout, "Figure 13 — median running time (ms) by deadline "
                          "factor");
  std::vector<std::string> headers{"algorithm"};
  for (const double f : {1.0, 1.5, 2.0, 3.0})
    headers.push_back(formatFixed(f, 1) + "·D");
  TextTable table(headers);

  for (std::size_t a = 0; a < outcome.solvers.size(); ++a) {
    std::vector<std::string> row{outcome.solvers[a]};
    for (const double factor : {1.0, 1.5, 2.0, 3.0}) {
      std::vector<double> times;
      for (std::size_t i = 0; i < outcome.numInstances; ++i) {
        const CampaignRecord& r = outcome.instanceCells(i)[a];
        if (!r.skipped && r.spec.deadlineFactor == factor)
          times.push_back(r.wallMs);
      }
      row.push_back(times.empty() ? "-" : formatFixed(medianOf(times), 2));
    }
    table.addRow(row);
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: mild growth with the deadline factor — "
               "far less than proportional to the horizon length.\n";
  return 0;
}
