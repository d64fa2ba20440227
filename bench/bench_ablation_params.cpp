// Ablation study of the two tuning parameters the paper fixes globally:
// the refinement block size k (= 3 in the paper, Section 5.2) and the
// local-search radius µ (= 10, Section 5.3). For each parameter value the
// median cost ratio vs ASAP of the strongest variant (pressWR-LS) and its
// median runtime are reported. Expected shape: k beyond 3 yields little
// extra quality for more subdivision work; quality improves with µ and
// saturates, while runtime grows.

#include "bench_common.hpp"

#include <cmath>

int main(int argc, char** argv) {
  using namespace cawo;
  using namespace cawo::bench;

  const BenchConfig cfg = parseBenchConfig(argc, argv);
  // A lighter grid: one family per structural archetype, one cluster, one
  // seed; serial, so the running times are not skewed by contention.
  CampaignSpec spec = benchCampaign(cfg, "ablation");
  spec.families = {WorkflowFamily::Atacseq, WorkflowFamily::Eager};
  spec.nodesPerType = {cfg.clusters.front()};
  spec.seeds = {cfg.baseSeed};
  spec.algos = "ASAP,pressWR-LS";
  spec.threads = 1;

  // pressWR-LS (the last selected solver): its defined cost ratios vs
  // ASAP and its running times.
  auto evaluate = [&](const SolverOptions& options,
                      std::vector<double>& ratios,
                      std::vector<double>& times) {
    const CampaignOutcome outcome = runCampaign(spec, options);
    requireFeasibleRecords(outcome);
    for (std::size_t i = 0; i < outcome.numInstances; ++i) {
      const CampaignRecord& r = outcome.instanceCells(i).back();
      times.push_back(r.wallMs);
      if (!std::isnan(r.ratioVsBaseline)) ratios.push_back(r.ratioVsBaseline);
    }
  };

  printHeading(std::cout,
               "Ablation — refinement block size k (pressWR-LS, µ=10)");
  {
    TextTable table({"k", "median ratio vs ASAP", "median ms"});
    for (const int k : {1, 2, 3, 4, 5}) {
      SolverOptions options;
      options.setInt("block-size", k);
      std::vector<double> ratios, times;
      evaluate(options, ratios, times);
      table.addRow({std::to_string(k), formatFixed(medianOf(ratios), 3),
                    formatFixed(medianOf(times), 2)});
    }
    table.print(std::cout);
  }

  printHeading(std::cout,
               "Ablation — local-search radius µ (pressWR-LS, k=3)");
  {
    TextTable table({"mu", "median ratio vs ASAP", "median ms"});
    for (const Time mu : {0, 2, 5, 10, 20, 40}) {
      SolverOptions options;
      options.setInt("ls-radius", mu);
      std::vector<double> ratios, times;
      evaluate(options, ratios, times);
      table.addRow({std::to_string(mu), formatFixed(medianOf(ratios), 3),
                    formatFixed(medianOf(times), 2)});
    }
    table.print(std::cout);
  }
  std::cout << "\nExpected shape: diminishing returns beyond k=3; quality "
               "saturates in µ while runtime keeps growing — supporting the "
               "paper's k=3, µ=10 defaults.\n";
  return 0;
}
