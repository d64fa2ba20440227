#include "solver/solver.hpp"

#include <charconv>

#include "core/carbon_cost.hpp"
#include "core/solve_context.hpp"
#include "obs/trace.hpp"
#include "util/require.hpp"
#include "util/strings.hpp"
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
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return set(key, std::string(buf, res.ptr));
}

bool SolverOptions::has(const std::string& key) const {
  return values_.count(key) > 0;
}

std::int64_t SolverOptions::getInt(const std::string& key,
                                   std::int64_t fallback) const {
  const auto it = values_.find(key);
  return it == values_.end()
             ? fallback
             : parseInt64Strict("solver option \"" + key + "\"", it->second);
}

double SolverOptions::getDouble(const std::string& key,
                                double fallback) const {
  const auto it = values_.find(key);
  return it == values_.end()
             ? fallback
             : parseDoubleStrict("solver option \"" + key + "\"", it->second);
}

std::string SolverOptions::getString(const std::string& key,
                                     const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
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
    requireResidualFits(*request.gc, *request.residual);
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

  // A residual solution is judged by the execution-aware rules: the pinned
  // prefix ran with its *effective* durations, so a task that ran short
  // legitimately frees its processor early. The projected cost uses the
  // same effective durations.
  result.validation = validateSchedule(gc, result.schedule,
                                       result.effectiveDeadline,
                                       request.residual);
  result.feasible = result.validation.ok;
  if (result.feasible)
    result.cost = request.residual != nullptr
                      ? evaluateCostWithDurations(
                            gc, profile, result.schedule,
                            *request.residual->durations)
                      : evaluateCost(gc, profile, result.schedule);
  return result;
}

} // namespace cawo
