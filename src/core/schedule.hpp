#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/enhanced_graph.hpp"
#include "util/types.hpp"

/// \file schedule.hpp
/// A schedule assigns a start time σ(u) to every node of the enhanced graph
/// (compute *and* communication tasks). Validation checks precedence,
/// deadline, and per-processor exclusivity — offline, or against a
/// `ResidualProblem` whose started nodes are pinned.

namespace cawo {

class WindowState;

class Schedule {
public:
  Schedule() = default;
  explicit Schedule(TaskId numNodes)
      : start_(static_cast<std::size_t>(numNodes), -1) {}

  TaskId numNodes() const { return static_cast<TaskId>(start_.size()); }

  void setStart(TaskId u, Time t) { start_[checked(u)] = t; }
  Time start(TaskId u) const { return start_[checked(u)]; }
  bool isSet(TaskId u) const { return start_[checked(u)] >= 0; }

  /// Completion time of node u (requires the graph for ω(u)).
  Time end(TaskId u, const EnhancedGraph& gc) const {
    return start(u) + gc.len(u);
  }

  /// Latest completion time over all nodes.
  Time makespan(const EnhancedGraph& gc) const;

  const std::vector<Time>& starts() const { return start_; }

private:
  std::size_t checked(TaskId u) const;
  std::vector<Time> start_;
};

/// A residual scheduling problem: part of the instance has already
/// *executed* (the online replay engine's completed and running tasks) and
/// only the remaining nodes are movable. The offline problem is the
/// residual problem with nothing started, release time 0 and planned
/// durations, so every function taking a `const ResidualProblem*` reads
/// null as exactly that. Pointed-to objects must outlive the call.
///
/// Contract: `starts`/`started` pin every started node at its observed
/// start time; `durations[u]` is the node's effective duration — the
/// *actual* runtime for completed nodes, the planned ω(u) estimate for
/// running and unstarted ones. Movable nodes must be scheduled no earlier
/// than `releaseTime` (the wall-clock now; every completed node has
/// finished by then). `windows` optionally hands the solver the engine's
/// incrementally maintained pinned-prefix EST/LST state so the re-solve
/// starts from the repaired fixpoint instead of re-pinning from scratch;
/// when given it must describe exactly the (gc, deadline, started-set)
/// of the problem.
struct ResidualProblem {
  const Schedule* starts = nullptr;
  const std::vector<std::uint8_t>* started = nullptr;
  const std::vector<Time>* durations = nullptr;
  Time releaseTime = 0;
  const WindowState* windows = nullptr;
};

/// Throws PreconditionError unless `residual` describes a partial
/// execution of `gc`: every pointer set, one start, flag and duration per
/// node, and a non-negative release time.
void requireResidualFits(const EnhancedGraph& gc,
                         const ResidualProblem& residual);

struct ValidationResult {
  bool ok = true;
  std::string message; ///< empty when ok; first violation otherwise

  explicit operator bool() const { return ok; }
};

/// Check that `s` is a feasible schedule for `gc` under deadline `deadline`:
/// the size matches the graph, all starts are set and non-negative, every
/// node finishes by the deadline, every precedence edge of Gc is respected,
/// and no two nodes overlap on the same (enhanced) processor.
///
/// With a `residual` (which must fit `gc`), started nodes must sit at their
/// pinned starts and occupy their processor for their effective duration —
/// a task that ran short frees it early. Only movable nodes must start at
/// or after the release time and finish by the deadline with ω(u), and
/// only edges into movable nodes are checked.
ValidationResult validateSchedule(const EnhancedGraph& gc, const Schedule& s,
                                  Time deadline,
                                  const ResidualProblem* residual = nullptr);

} // namespace cawo
