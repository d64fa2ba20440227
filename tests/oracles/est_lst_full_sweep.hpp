#pragma once

// Test oracle: the paper-literal full two-pass EST/LST sweep (Sections
// 5.1/5.2) over a partially scheduled instance, kept verbatim from the
// library. Nodes with a start time in `partial` are pinned
// (EST = LST = σ(u)); the windows of the remaining nodes tighten
// accordingly, O(N+E) per call. The greedy scheduler maintains the same
// fixpoint incrementally with `WindowState` (core/est_lst.hpp), which
// must match this sweep bit for bit after every placement — the property
// tests in tests/test_solve_context.cpp, tests/test_est_lst_asap.cpp and
// tests/test_online.cpp pin exactly that.

#include <algorithm>
#include <vector>

#include "core/enhanced_graph.hpp"
#include "core/schedule.hpp"
#include "util/require.hpp"
#include "util/types.hpp"

namespace cawo::oracle {

inline void recomputeWindows(const EnhancedGraph& gc, Time deadline,
                             const Schedule& partial,
                             const std::vector<bool>& placed,
                             std::vector<Time>& est, std::vector<Time>& lst) {
  const auto n = static_cast<std::size_t>(gc.numNodes());
  CAWO_REQUIRE(placed.size() == n && est.size() == n && lst.size() == n,
               "recomputeWindows: size mismatch");
  const auto& topo = gc.topoOrder();

  for (TaskId u : topo) {
    const auto iu = static_cast<std::size_t>(u);
    if (placed[iu]) {
      est[iu] = partial.start(u);
      continue;
    }
    Time ready = 0;
    for (TaskId p : gc.preds(u))
      ready = std::max(ready, est[static_cast<std::size_t>(p)] + gc.len(p));
    est[iu] = ready;
  }
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const TaskId u = *it;
    const auto iu = static_cast<std::size_t>(u);
    if (placed[iu]) {
      lst[iu] = partial.start(u);
      continue;
    }
    Time latest = deadline - gc.len(u);
    for (TaskId s : gc.succs(u))
      latest = std::min(latest, lst[static_cast<std::size_t>(s)] - gc.len(u));
    lst[iu] = latest;
  }
}

} // namespace cawo::oracle
