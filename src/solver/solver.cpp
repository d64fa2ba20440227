#include "solver/solver.hpp"

#include <cstdlib>
#include <sstream>

#include "core/carbon_cost.hpp"
#include "core/solve_context.hpp"
#include "obs/trace.hpp"
#include "util/require.hpp"
#include "util/timer.hpp"

namespace cawo {

SolverOptions& SolverOptions::set(const std::string& key, std::string value) {
  values_[key] = std::move(value);
  return *this;
}

SolverOptions& SolverOptions::setInt(const std::string& key,
                                     std::int64_t value) {
  return set(key, std::to_string(value));
}

SolverOptions& SolverOptions::setDouble(const std::string& key, double value) {
  std::ostringstream os;
  os << value;
  return set(key, os.str());
}

bool SolverOptions::has(const std::string& key) const {
  return values_.count(key) > 0;
}

std::int64_t SolverOptions::getInt(const std::string& key,
                                   std::int64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  try {
    return std::stoll(it->second);
  } catch (const std::exception&) {
    CAWO_REQUIRE(false, "option '" + key + "' is not an integer: '" +
                            it->second + "'");
  }
  return fallback; // unreachable
}

double SolverOptions::getDouble(const std::string& key,
                                double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  try {
    return std::stod(it->second);
  } catch (const std::exception&) {
    CAWO_REQUIRE(false, "option '" + key + "' is not a number: '" +
                            it->second + "'");
  }
  return fallback; // unreachable
}

std::string SolverOptions::getString(const std::string& key,
                                     const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

ValidationResult validateResidualSchedule(const EnhancedGraph& gc,
                                          const Schedule& s, Time deadline,
                                          const ResidualProblem& residual) {
  const auto fail = [](std::string message) {
    ValidationResult r;
    r.ok = false;
    r.message = std::move(message);
    return r;
  };
  const std::vector<std::uint8_t>& started = *residual.started;
  const std::vector<Time>& durations = *residual.durations;
  const auto startedEnd = [&](TaskId u) {
    return residual.starts->start(u) + durations[static_cast<std::size_t>(u)];
  };
  for (TaskId u = 0; u < gc.numNodes(); ++u) {
    if (!s.isSet(u)) return fail("node " + std::to_string(u) + " has no start");
    if (started[static_cast<std::size_t>(u)]) {
      if (s.start(u) != residual.starts->start(u))
        return fail("started node " + std::to_string(u) +
                    " was moved from its pinned start");
      continue;
    }
    const Time a = s.start(u);
    if (a < residual.releaseTime)
      return fail("movable node " + std::to_string(u) +
                  " starts before the release time");
    if (a + gc.len(u) > deadline)
      return fail("movable node " + std::to_string(u) +
                  " finishes after the deadline");
    for (const TaskId p : gc.preds(u)) {
      // Started predecessors bound by their *effective* completion
      // (actual for completed, estimated for running); movable ones by
      // their planned occupancy.
      const Time predEnd = started[static_cast<std::size_t>(p)]
                               ? startedEnd(p)
                               : (s.isSet(p) ? s.start(p) + gc.len(p)
                                             : kTimeInfinity);
      if (predEnd == kTimeInfinity)
        return fail("node " + std::to_string(p) + " has no start");
      if (a < predEnd)
        return fail("movable node " + std::to_string(u) +
                    " starts before predecessor " + std::to_string(p) +
                    " completes");
    }
  }
  return {};
}

SolveResult Solver::solve(const SolveRequest& request) const {
  const SolverInfo meta = info();
  CAWO_REQUIRE(request.gc != nullptr,
               "SolveRequest.gc is required (solver '" + meta.name + "')");
  CAWO_REQUIRE(request.profile != nullptr,
               "SolveRequest.profile is required (solver '" + meta.name +
                   "')");
  CAWO_REQUIRE(request.deadline > 0,
               "SolveRequest.deadline must be positive (solver '" +
                   meta.name + "')");
  if (meta.needsWorkflow) {
    CAWO_REQUIRE(request.graph != nullptr && request.platform != nullptr,
                 "solver '" + meta.name +
                     "' re-runs the mapping pass and needs "
                     "SolveRequest.graph and SolveRequest.platform");
  }
  if (request.residual != nullptr) {
    CAWO_REQUIRE(meta.supportsResidual,
                 "solver '" + meta.name +
                     "' does not support residual (mid-execution) problems");
    const ResidualProblem& residual = *request.residual;
    CAWO_REQUIRE(residual.starts != nullptr && residual.started != nullptr &&
                     residual.durations != nullptr,
                 "ResidualProblem needs starts, started and durations "
                 "(solver '" + meta.name + "')");
    CAWO_REQUIRE(
        residual.started->size() ==
                static_cast<std::size_t>(request.gc->numNodes()) &&
            residual.durations->size() == residual.started->size() &&
            static_cast<std::size_t>(residual.starts->numNodes()) ==
                residual.started->size(),
        "ResidualProblem vectors do not match the graph (solver '" +
            meta.name + "')");
    CAWO_REQUIRE(residual.releaseTime >= 0,
                 "ResidualProblem.releaseTime must be non-negative (solver '" +
                     meta.name + "')");
  }
  if (request.context != nullptr) {
    CAWO_REQUIRE(&request.context->gc() == request.gc &&
                     &request.context->profile() == request.profile &&
                     request.context->deadline() == request.deadline,
                 "SolveRequest.context describes a different instance than "
                 "the request (solver '" +
                     meta.name + "')");
  }

  WallTimer timer;
  RawResult raw;
  {
    obs::TraceScope span("solve");
    if (span.recording()) span.arg("solver", meta.name);
    raw = doSolve(request);
  }
  const double wallMs = timer.elapsedMs();

  SolveResult result;
  result.schedule = std::move(raw.schedule);
  result.wallMs = wallMs;
  result.provedOptimal = raw.provedOptimal;
  result.stats = std::move(raw.stats);
  result.remappedGc = std::move(raw.remappedGc);
  result.extendedProfile = std::move(raw.extendedProfile);
  result.effectiveDeadline =
      raw.effectiveDeadline >= 0 ? raw.effectiveDeadline : request.deadline;

  const EnhancedGraph& gc =
      result.remappedGc ? *result.remappedGc : *request.gc;
  const PowerProfile& profile =
      result.extendedProfile ? *result.extendedProfile : *request.profile;

  if (request.residual != nullptr) {
    // A residual solution is judged against the execution-aware rules: the
    // pinned prefix ran with its *effective* durations, which the plain
    // planned-length validation would mis-score (a task that ran short
    // legitimately frees its processor early). The projected cost uses the
    // same effective durations.
    result.validation = validateResidualSchedule(
        gc, result.schedule, result.effectiveDeadline, *request.residual);
    result.feasible = result.validation.ok;
    if (result.feasible)
      result.cost = evaluateCostWithDurations(gc, profile, result.schedule,
                                              *request.residual->durations);
    return result;
  }
  result.validation =
      validateSchedule(gc, result.schedule, result.effectiveDeadline);
  result.feasible = result.validation.ok;
  if (result.feasible) result.cost = evaluateCost(gc, profile, result.schedule);
  return result;
}

} // namespace cawo
