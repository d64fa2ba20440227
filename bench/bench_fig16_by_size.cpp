// Figure 16 — cost ratios vs ASAP split by workflow size class (the paper
// groups 200–4k tasks as small, 8k–18k as medium, 20k–30k as large; this
// run uses proportionally smaller classes around the --tasks default).
// Expected shape: the ratio degrades only slightly with more tasks — the
// improvement over ASAP stays significant in every class.

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace cawo;
  using namespace cawo::bench;

  BenchConfig cfg = parseBenchConfig(argc, argv);

  // Three size classes around the configured base size; the figure is a
  // thin campaign whose task axis lists one size per class.
  const std::vector<std::pair<std::string, int>> classes = {
      {"small", std::max(20, cfg.tasks / 3)},
      {"medium", cfg.tasks},
      {"large", cfg.tasks * 3},
  };

  CampaignSpec campaign = benchCampaign(cfg, "fig16-by-size");
  campaign.families = {WorkflowFamily::Atacseq, WorkflowFamily::Eager,
                       WorkflowFamily::Methylseq};
  campaign.bacassTasks = 0;
  campaign.tasks.clear();
  for (const auto& [className, tasks] : classes)
    campaign.tasks.push_back(tasks);
  campaign.seeds = {cfg.baseSeed};

  const CampaignOutcome outcome = runBenchCampaign(campaign, cfg);

  for (const auto& [className, tasks] : classes) {
    const CostMatrix m = toCostMatrix(outcome, [&](const InstanceSpec& s) {
      return s.targetTasks == tasks;
    });
    printHeading(std::cout, "Figure 16 — median cost ratio vs ASAP, " +
                                className + " workflows (~" +
                                std::to_string(tasks) + " tasks)");
    printMedianRatios(std::cout, m, "");
  }
  std::cout << "\nExpected shape: slight degradation with size, but a "
               "significant improvement over ASAP in every class.\n";
  return 0;
}
