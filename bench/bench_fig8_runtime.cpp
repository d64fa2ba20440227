// Figure 8 (and appendix Figure 12) — scheduler running time per algorithm
// variant, overall and for the largest workflows in the run. Expected
// shape: all variants are within a reasonable slowdown of ASAP; refined
// (R) variants and local search add the most time; runtime grows with the
// workflow size.

#include "bench_common.hpp"

#include <algorithm>

int main(int argc, char** argv) {
  using namespace cawo;
  using namespace cawo::bench;

  const BenchConfig cfg = parseBenchConfig(argc, argv);
  const CampaignOutcome outcome =
      runBenchCampaign(benchCampaign(cfg, "bench-grid"), cfg);
  const std::vector<std::string>& names = outcome.solvers;
  const std::size_t S = names.size();

  // Running times per cell label over the instances `keep` selects.
  auto timeStats = [&](auto keep) {
    std::vector<std::vector<double>> times(S);
    for (std::size_t i = 0; i < outcome.numInstances; ++i) {
      const auto cells = outcome.instanceCells(i);
      if (!keep(cells.front())) continue;
      for (std::size_t a = 0; a < S; ++a)
        if (!cells[a].skipped) times[a].push_back(cells[a].wallMs);
    }
    return times;
  };

  printHeading(std::cout, "Figure 8 — running time per algorithm (ms, " +
                              std::to_string(outcome.numInstances) +
                              " instances)");
  {
    const auto times = timeStats([](const CampaignRecord&) { return true; });
    TextTable table({"algorithm", "median ms", "mean ms", "max ms"});
    for (std::size_t a = 0; a < S; ++a) {
      if (times[a].empty()) continue;
      const double maxV =
          *std::max_element(times[a].begin(), times[a].end());
      table.addRow({names[a], formatFixed(medianOf(times[a]), 2),
                    formatFixed(meanOf(times[a]), 2),
                    formatFixed(maxV, 2)});
    }
    table.print(std::cout);
  }

  // Figure 12: restrict to the largest workflows in this run.
  TaskId largest = 0;
  for (const CampaignRecord& r : outcome.records)
    largest = std::max(largest, r.numNodes);
  const auto isBig = [&](const CampaignRecord& r) {
    return r.numNodes >= largest * 3 / 4;
  };
  std::size_t bigCount = 0;
  for (std::size_t i = 0; i < outcome.numInstances; ++i)
    if (isBig(outcome.instanceCells(i).front())) ++bigCount;

  printHeading(std::cout, "Figure 12 — running time on the largest "
                          "workflows only (" +
                              std::to_string(bigCount) + " instances)");
  {
    const auto times = timeStats(isBig);
    TextTable table({"algorithm", "median ms", "max ms"});
    for (std::size_t a = 0; a < S; ++a) {
      if (times[a].empty()) continue;
      const double maxV =
          *std::max_element(times[a].begin(), times[a].end());
      table.addRow({names[a], formatFixed(medianOf(times[a]), 2),
                    formatFixed(maxV, 2)});
    }
    table.print(std::cout);
  }
  std::cout << "\nExpected shape: moderate slowdown vs ASAP; R variants and "
               "-LS cost the most; larger workflows dominate the tail.\n";
  return 0;
}
