// Figure 7 — solution quality versus the exact optimum on small instances.
// The paper solves its ILP (Appendix A.4) with Gurobi on instances of up to
// 200 tasks; here the optimum comes from the equivalent branch-and-bound
// solver (see DESIGN.md, substitutions) on instances small enough to
// certify. Expected shape: the heuristics' median ratio optimum/heuristic
// stays high (close to 1), many instances are solved optimally, and ASAP
// is clearly worse.

#include "bench_common.hpp"

#include "core/asap.hpp"
#include "core/carbon_cost.hpp"
#include "core/cawosched.hpp"
#include "exact/branch_and_bound.hpp"
#include "profile/scenario.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace cawo;
  using namespace cawo::bench;

  const CliArgs args(argc, argv, {"count", "seed", "tasks"});
  const int count = static_cast<int>(args.getInt("count", 24));
  const int tasks = static_cast<int>(args.getInt("tasks", 5));
  const auto baseSeed = static_cast<std::uint64_t>(args.getInt("seed", 7));

  const std::vector<std::string> names = suiteSolverNames();
  std::vector<std::vector<double>> ratios(names.size());
  int optimalHits = 0, totalRuns = 0, certified = 0;

  for (int i = 0; i < count; ++i) {
    Rng rng(baseSeed + static_cast<std::uint64_t>(i) * 131);
    // Small 2-processor instance with a handful of dependent tasks.
    std::vector<EnhancedGraph::Node> nodes(
        static_cast<std::size_t>(tasks));
    std::vector<std::vector<TaskId>> orders(2);
    for (int t = 0; t < tasks; ++t) {
      nodes[static_cast<std::size_t>(t)].original = t;
      nodes[static_cast<std::size_t>(t)].proc =
          static_cast<ProcId>(rng.uniformInt(0, 1));
      nodes[static_cast<std::size_t>(t)].len = rng.uniformInt(1, 3);
      orders[static_cast<std::size_t>(
                 nodes[static_cast<std::size_t>(t)].proc)]
          .push_back(t);
    }
    std::vector<std::pair<TaskId, TaskId>> edges;
    for (int a = 0; a < tasks; ++a)
      for (int b = a + 1; b < tasks; ++b)
        if (rng.uniform01() < 0.25) edges.push_back({a, b});
    const EnhancedGraph gc = EnhancedGraph::fromParts(
        std::move(nodes), edges, {1, 2}, {4, 6}, std::move(orders));

    const Time deadline = asapMakespan(gc) + rng.uniformInt(3, 8);
    const PowerProfile profile = generateScenario(
        static_cast<Scenario>(rng.uniformInt(0, 3)), deadline, 3, 10,
        {4, 0.1, baseSeed + static_cast<std::uint64_t>(i)});

    const BnbResult exact = solveExact(gc, profile, deadline);
    if (!exact.provedOptimal) continue;
    ++certified;

    for (std::size_t a = 0; a < names.size(); ++a) {
      const Schedule s =
          a == 0 ? scheduleAsap(gc)
                 : runVariant(gc, profile, deadline,
                              VariantSpec::parse(names[a]));
      const Cost own = evaluateCost(gc, profile, s);
      ++totalRuns;
      double ratio;
      if (own == 0) {
        ratio = 1.0;
      } else {
        ratio = static_cast<double>(exact.cost) / static_cast<double>(own);
      }
      if (own == exact.cost) ++optimalHits;
      ratios[a].push_back(ratio);
    }
  }

  printHeading(std::cout,
               "Figure 7 — ratio optimum/heuristic on " +
                   std::to_string(certified) + " certified-small instances");
  std::vector<std::string> labels;
  std::vector<double> medians;
  for (std::size_t a = 0; a < names.size(); ++a) {
    if (ratios[a].empty()) continue;
    labels.push_back(names[a]);
    medians.push_back(medianOf(ratios[a]));
  }
  printBarChart(std::cout, "median ratio (1.0 = optimal)", labels, medians);
  std::cout << "\noptimal solutions found: " << optimalHits << " / "
            << totalRuns << " runs\n";
  std::cout << "Expected shape: heuristic medians close to 1.0, ASAP "
               "clearly lower; a significant share of runs hit the exact "
               "optimum.\n";
  return 0;
}
