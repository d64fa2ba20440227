// Figure 14 (and appendix Figure 17) — the influence of the cluster size:
// median cost ratios vs ASAP and the τ=1 performance-profile point, split
// by cluster. Expected shape (paper): the cluster size has no significant
// influence on the cost ratio; for the larger cluster the profile curves
// move closer together.

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace cawo;
  using namespace cawo::bench;

  const BenchConfig cfg = parseBenchConfig(argc, argv);
  const CampaignOutcome outcome =
      runBenchCampaign(benchCampaign(cfg, "bench-grid"), cfg);

  for (const int cluster : cfg.clusters) {
    const CostMatrix m = toCostMatrix(outcome, [&](const InstanceSpec& s) {
      return s.nodesPerType == cluster;
    });

    printHeading(std::cout, "Figure 14 — median cost ratio vs ASAP, cluster "
                            "with " +
                                std::to_string(cluster) + " node(s)/type (" +
                                std::to_string(m.numInstances()) +
                                " instances)");
    printMedianRatios(std::cout, m, "");

    const auto profile = performanceProfile(m, {1.0});
    std::vector<std::string> labels;
    std::vector<double> values;
    for (std::size_t a = 0; a < m.numAlgorithms(); ++a) {
      labels.push_back(m.algorithms[a]);
      values.push_back(profile[a][0]);
    }
    printBarChart(std::cout,
                  "Figure 17 — share of instances at the best cost (tau=1)",
                  labels, values);
  }
  std::cout << "\nExpected shape: ratios similar across cluster sizes; "
               "profile points closer together on the larger cluster.\n";
  return 0;
}
