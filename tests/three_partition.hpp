#pragma once

// The reduction from 3-Partition used in the strong NP-completeness proof
// of Theorem 4.3 (Appendix A.3): the class UCAS of instances with P
// power-homogeneous processors (P_idle = 0, P_work = 1) and independent
// tasks admits a zero-carbon schedule iff the 3-Partition instance is a
// yes-instance. Reproducing the construction lets tests verify the
// reduction's correctness on both yes- and no-instances.

#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/enhanced_graph.hpp"
#include "core/power_profile.hpp"
#include "util/require.hpp"
#include "util/types.hpp"

namespace cawo {

struct ThreePartitionInstance {
  std::vector<Work> items; ///< 3n positive integers
  Work bound = 0;          ///< B with Σ items = n·B and B/4 < x < B/2
};

struct UcasInstance {
  EnhancedGraph gc;
  PowerProfile profile;
  Time deadline = 0;
};

/// Validate the 3-Partition preconditions (Σ = nB, B/4 < x_i < B/2).
/// Returns an empty string when valid, else a description.
inline std::string validateThreePartition(const ThreePartitionInstance& inst) {
  if (inst.items.size() % 3 != 0 || inst.items.empty())
    return "item count must be a positive multiple of 3";
  const auto n = inst.items.size() / 3;
  const Work total =
      std::accumulate(inst.items.begin(), inst.items.end(), Work{0});
  if (total != static_cast<Work>(n) * inst.bound)
    return "sum of items must equal n*B";
  for (const Work x : inst.items) {
    if (4 * x <= inst.bound || 2 * x >= inst.bound)
      return "every item must satisfy B/4 < x < B/2";
  }
  return {};
}

/// Build the UCAS scheduling instance of the reduction:
/// 3n unit-power processors, 3n independent tasks (task i on processor i
/// with length x_i), and 2n−1 alternating intervals — odd intervals of
/// length B with budget 1, even "separator" intervals of length 1 with
/// budget 0. Total carbon cost 0 is achievable iff the 3-Partition
/// instance has a solution.
inline UcasInstance buildUcasInstance(const ThreePartitionInstance& inst) {
  const std::string err = validateThreePartition(inst);
  CAWO_REQUIRE(err.empty(), "invalid 3-Partition instance: " + err);
  const auto m = inst.items.size(); // 3n tasks and processors
  const auto n = m / 3;

  std::vector<EnhancedGraph::Node> nodes(m);
  std::vector<std::vector<TaskId>> orders(m);
  for (std::size_t i = 0; i < m; ++i) {
    nodes[i].original = static_cast<TaskId>(i);
    nodes[i].proc = static_cast<ProcId>(i);
    nodes[i].len = inst.items[i];
    orders[i] = {static_cast<TaskId>(i)};
  }
  // Uniform power: P_idle = 0, P_work = 1 (Theorem 4.3).
  std::vector<Power> idle(m, 0);
  std::vector<Power> work(m, 1);

  UcasInstance out{
      EnhancedGraph::fromParts(std::move(nodes), {}, std::move(idle),
                               std::move(work), std::move(orders)),
      PowerProfile{}, 0};

  // Horizon: n intervals of length B with budget 1, separated by n−1
  // intervals of length 1 with budget 0. T = nB + n − 1.
  for (std::size_t k = 0; k < n; ++k) {
    out.profile.appendInterval(inst.bound, 1);
    if (k + 1 < n) out.profile.appendInterval(1, 0);
  }
  out.deadline = out.profile.horizon();
  return out;
}

} // namespace cawo
