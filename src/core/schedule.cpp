#include "core/schedule.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace cawo {

std::size_t Schedule::checked(TaskId u) const {
  CAWO_REQUIRE(u >= 0 && u < numNodes(), "node id out of range");
  return static_cast<std::size_t>(u);
}

Time Schedule::makespan(const EnhancedGraph& gc) const {
  Time m = 0;
  for (TaskId u = 0; u < numNodes(); ++u)
    if (isSet(u)) m = std::max(m, end(u, gc));
  return m;
}

void requireResidualFits(const EnhancedGraph& gc,
                         const ResidualProblem& residual) {
  CAWO_REQUIRE(residual.starts != nullptr && residual.started != nullptr &&
                   residual.durations != nullptr,
               "ResidualProblem needs starts, started and durations");
  const auto n = static_cast<std::size_t>(gc.numNodes());
  CAWO_REQUIRE(residual.started->size() == n &&
                   residual.durations->size() == n &&
                   static_cast<std::size_t>(residual.starts->numNodes()) == n,
               "ResidualProblem vectors do not match the graph");
  CAWO_REQUIRE(residual.releaseTime >= 0,
               "ResidualProblem.releaseTime must be non-negative");
}

ValidationResult validateSchedule(const EnhancedGraph& gc, const Schedule& s,
                                  Time deadline,
                                  const ResidualProblem* residual) {
  auto fail = [](std::string msg) {
    return ValidationResult{false, std::move(msg)};
  };
  if (residual != nullptr) requireResidualFits(gc, *residual);
  if (s.numNodes() != gc.numNodes())
    return fail("schedule size does not match graph");

  // Without a residual nothing has started: every node is movable, runs
  // for ω(u) and is released at 0.
  const auto started = [&](TaskId u) {
    return residual != nullptr &&
           (*residual->started)[static_cast<std::size_t>(u)] != 0;
  };
  const auto end = [&](TaskId u) {
    return started(u) ? s.start(u) + (*residual->durations)[
                                         static_cast<std::size_t>(u)]
                      : s.end(u, gc);
  };
  const Time release = residual != nullptr ? residual->releaseTime : 0;

  for (TaskId u = 0; u < gc.numNodes(); ++u) {
    if (!s.isSet(u))
      return fail("node " + std::to_string(u) + " has no start time");
    if (started(u)) {
      if (s.start(u) != residual->starts->start(u))
        return fail("started node " + std::to_string(u) + " moved from " +
                    std::to_string(residual->starts->start(u)) + " to " +
                    std::to_string(s.start(u)));
      continue;
    }
    if (s.start(u) < release)
      return fail("node " + std::to_string(u) + " starts at " +
                  std::to_string(s.start(u)) + " before release time " +
                  std::to_string(release));
    if (s.end(u, gc) > deadline)
      return fail("node " + std::to_string(u) + " finishes at " +
                  std::to_string(s.end(u, gc)) + " past deadline " +
                  std::to_string(deadline));
  }

  // A started node's predecessors ran before it; only edges into movable
  // nodes can be violated.
  for (TaskId u = 0; u < gc.numNodes(); ++u) {
    const Time endU = end(u);
    for (TaskId v : gc.succs(u)) {
      if (!started(v) && s.start(v) < endU)
        return fail("precedence violated: node " + std::to_string(v) +
                    " starts at " + std::to_string(s.start(v)) +
                    " before predecessor " + std::to_string(u) +
                    " completes at " + std::to_string(endU));
    }
  }

  // Exclusivity per enhanced processor. The ordering chain edges normally
  // already enforce this; checking explicitly guards fromParts-built graphs
  // and catches library bugs. Equal starts sort the earlier end first, so
  // a zero-length node and its chain successor may share a start.
  for (ProcId p = 0; p < gc.numProcs(); ++p) {
    std::vector<TaskId> tasks(gc.procOrder(p).begin(), gc.procOrder(p).end());
    std::sort(tasks.begin(), tasks.end(), [&](TaskId a, TaskId b) {
      const Time sa = s.start(a), sb = s.start(b);
      return sa != sb ? sa < sb : end(a) < end(b);
    });
    for (std::size_t i = 0; i + 1 < tasks.size(); ++i) {
      if (end(tasks[i]) > s.start(tasks[i + 1]))
        return fail("nodes " + std::to_string(tasks[i]) + " and " +
                    std::to_string(tasks[i + 1]) + " overlap on processor " +
                    std::to_string(p));
    }
  }
  return {};
}

} // namespace cawo
