#include "online/replay.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/carbon_cost.hpp"
#include "obs/trace.hpp"
#include "profile/profile_source.hpp"
#include "solver/registry.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace cawo {

namespace {

/// The whole instance solved offline against `profile` — the plan (against
/// the forecast) and the clairvoyant reference (against the actual).
SolveResult solveOffline(const Solver& solver, const Instance& instance,
                         const PowerProfile& profile,
                         const SolveContext& context,
                         const SolverOptions& options) {
  SolveRequest request;
  request.gc = &instance.gc;
  request.profile = &profile;
  request.deadline = instance.deadline;
  request.graph = &instance.graph;
  request.platform = &instance.platform;
  request.context = &context;
  request.options = options;
  return solver.solve(request);
}

} // namespace

ReplayProfiles::ReplayProfiles(const Instance& instance,
                               const std::string& actualSpec)
    : instanceProfile_(&instance.profile) {
  const ProfileRequest request = instanceProfileRequest(instance);
  if (actualSpec.empty()) {
    ProfilePair pair =
        generateForecastActualPair(instance.spec.scenario, request);
    pairForecast_ = std::move(pair.forecast);
    actual_ = std::move(pair.actual);
    return;
  }
  requireForecastWithoutNoise(instance.spec.scenario, actualSpec);
  actual_ = generateProfile(actualSpec, request);
}

ReplayPlan::ReplayPlan(const Instance& instance, const PowerProfile& forecast,
                       const PowerProfile& actual,
                       const OnlineOptions& options,
                       const SolveContext* context)
    : options_(options) {
  try {
    build(instance, forecast, actual, context);
  } catch (const std::exception& e) {
    error_ = e.what();
  }
}

void ReplayPlan::build(const Instance& instance, const PowerProfile& forecast,
                       const PowerProfile& actual,
                       const SolveContext* context) {
  CAWO_REQUIRE(forecast.horizon() >= instance.deadline,
               "forecast profile must cover the instance deadline");
  CAWO_REQUIRE(actual.horizon() >= instance.deadline,
               "actual profile must cover the instance deadline");

  // Offline solve against the forecast. The context is built on the
  // instance graph; a re-mapping solver ignores it and reports its own
  // effective graph/profile/deadline, which the replays then run under.
  const SolverRegistry& registry = SolverRegistry::global();
  const SolverPtr planner = registry.create(options_.solver);
  if (context == nullptr)
    context = &ownedCtx_.emplace(instance.gc, forecast, instance.deadline);
  const SolveResult solved = solveOffline(*planner, instance, forecast,
                                          *context, options_.solverOptions);
  solveWallMs_ = solved.wallMs;
  forecastCost_ = solved.cost;
  deadline_ = solved.effectiveDeadline;
  if (!solved.feasible) {
    error_ = solved.validation.message.empty() ? "offline solve infeasible"
                                               : solved.validation.message;
    return;
  }
  schedule_ = solved.schedule;

  // Effective problem: the instance as-is, or the re-mapped one.
  remappedGc_ = solved.remappedGc;
  forecastOwned_ = solved.extendedProfile;
  gc_ = remappedGc_ ? remappedGc_.get() : &instance.gc;
  forecast_ = forecastOwned_ ? forecastOwned_.get() : &forecast;
  if (std::ranges::equal(actual.intervals(), forecast.intervals())) {
    // Identical inputs share the forecast's extension, keeping the
    // actual == forecast parity bit-exact even for re-mapping solvers.
    actual_ = forecast_;
  } else if (forecast_->horizon() > actual.horizon()) {
    // A re-mapping solver stretched the horizon past the measured actual.
    // The unmeasured tail is billed with a green budget of 0 — the same
    // "overshoot is all brown" rule evaluateCostWithDurations applies past
    // the horizon — so remapping and non-remapping solvers are graded
    // under one billing rule.
    actualOwned_ = actual;
    actualOwned_->extendTo(forecast_->horizon(), 0);
    actual_ = &*actualOwned_;
  } else {
    actual_ = &actual;
  }

  // Re-seat the context only when the effective problem differs from the
  // planning one (re-mapping solvers).
  ctx_ = context;
  if (gc_ != &instance.gc || forecast_ != &forecast ||
      deadline_ != instance.deadline)
    ctx_ = &ownedCtx_.emplace(*gc_, *forecast_, deadline_);

  // The re-solver: the planning solver itself when it is residual-capable,
  // otherwise the strongest greedy (its -LS pass is skipped on residuals
  // anyway, so "pressWR" is the natural fallback).
  resolveSolver_ = registry.create(
      planner->info().supportsResidual ? options_.solver : "pressWR");

  // Actual runtimes: one deterministic draw per non-trivial node, in node
  // order. Amplitude 0 keeps every duration exactly ω(u).
  const auto n = static_cast<std::size_t>(gc_->numNodes());
  plannedLens_.resize(n);
  for (TaskId v = 0; v < gc_->numNodes(); ++v)
    plannedLens_[static_cast<std::size_t>(v)] = gc_->len(v);
  durations_ = plannedLens_;
  const double noise = options_.runtimeNoise;
  CAWO_REQUIRE(noise >= 0.0 && noise < 1.0,
               "runtime noise amplitude must lie in [0, 1)");
  if (noise > 0.0) {
    Rng rng(options_.runtimeSeed);
    for (std::size_t i = 0; i < n; ++i) {
      if (plannedLens_[i] == 0) continue;
      const double factor = 1.0 + rng.uniformReal(-noise, noise);
      durations_[i] = std::max<Time>(
          1, static_cast<Time>(std::llround(
                 static_cast<double>(plannedLens_[i]) * factor)));
    }
  }
  feasible_ = true;

  // Clairvoyant reference: the same solver planning directly against the
  // (unextended) actual profile, billed the ordinary offline way. A failed
  // reference leaves the regret undefined; the replays still run.
  try {
    const SolveContext actualCtx(instance.gc, actual, instance.deadline);
    const SolveResult reference = solveOffline(
        *planner, instance, actual, actualCtx, options_.solverOptions);
    clairvoyantFeasible_ = reference.feasible;
    clairvoyantCost_ = reference.cost;
  } catch (const std::exception&) {
  }
}

ReplayEngine::ReplayEngine(const ReplayPlan& plan, std::string policy,
                           PolicyPtr rule)
    : shared_(plan), policySpec_(std::move(policy)),
      policy_(std::move(rule)) {
  if (!shared_.feasible_) return;
  plan_ = shared_.schedule_;
  const EnhancedGraph& graph = gc();
  const auto n = static_cast<std::size_t>(graph.numNodes());
  executed_ = Schedule(graph.numNodes());
  started_.assign(n, 0);
  completed_.assign(n, 0);
  predsLeft_.assign(n, 0);
  for (TaskId v = 0; v < graph.numNodes(); ++v) {
    predsLeft_[static_cast<std::size_t>(v)] =
        static_cast<TaskId>(graph.preds(v).size());
    if (predsLeft_[static_cast<std::size_t>(v)] == 0) ready_.push_back(v);
  }

  windows_.emplace(shared_.ctx_->windowState());
  residualDurations_.resize(n);

  startReady();
}

std::int64_t ReplayEngine::intervalIndexAt(Time t) const {
  if (t >= shared_.forecast_->horizon())
    return static_cast<std::int64_t>(shared_.forecast_->numIntervals());
  return static_cast<std::int64_t>(shared_.forecast_->indexAt(t));
}

void ReplayEngine::startNode(TaskId v, Time at) {
  executed_.setStart(v, at);
  started_[static_cast<std::size_t>(v)] = 1;
  ++startedCount_;
  // The live pinned-prefix windows: one incremental repair per event.
  windows_->place(v, at);
  queue_.emplace(at + shared_.durations_[static_cast<std::size_t>(v)], v);
}

void ReplayEngine::startReady() {
  // Start every ready task whose dispatch time precedes the next
  // completion; anything later may still be re-planned by a policy
  // decision at that completion. Dispatch time = max(plan start, now):
  // predecessors release tasks through completion events, and Gc's
  // per-processor chains fold exclusivity into precedence. Only the
  // ready frontier is scanned (started entries are compacted out), so
  // dispatch stays proportional to the frontier, not N.
  while (true) {
    const Time nextCompletion =
        queue_.empty() ? kTimeInfinity : queue_.top().first;
    Time best = kTimeInfinity;
    std::size_t keep = 0;
    for (const TaskId v : ready_) {
      if (started_[static_cast<std::size_t>(v)]) continue;
      ready_[keep++] = v;
      best = std::min(best, std::max(plan_.start(v), now_));
    }
    ready_.resize(keep);
    if (best == kTimeInfinity || best >= nextCompletion) return;
    for (const TaskId v : ready_) {
      if (started_[static_cast<std::size_t>(v)]) continue;
      if (std::max(plan_.start(v), now_) == best) startNode(v, best);
    }
  }
}

double ReplayEngine::windowedDeviation() {
  if (deviationCached_) return deviationValue_;
  observedNow_ = evaluateCostPrefix(gc(), *shared_.actual_, executed_,
                                    shared_.durations_, now_);
  plannedNow_ = evaluateCostPrefix(gc(), *shared_.forecast_, plan_,
                                   shared_.plannedLens_, now_);
  const Cost observedDelta = observedNow_ - baselineObserved_;
  const Cost plannedDelta = plannedNow_ - baselinePlanned_;
  const Cost diff = observedDelta > plannedDelta
                        ? observedDelta - plannedDelta
                        : plannedDelta - observedDelta;
  deviationValue_ = static_cast<double>(diff) /
                    static_cast<double>(std::max<Cost>(plannedDelta, 1));
  deviationCached_ = true;
  return deviationValue_;
}

bool ReplayEngine::attemptResolve() {
  obs::TraceScope span("replay.resolve");
  if (span.recording()) span.arg("at", static_cast<std::int64_t>(now_));
  // Residual problem: pinned starts, effective durations (actual where
  // known, planned estimates otherwise), release at `now`, and the live
  // incrementally-maintained windows.
  for (TaskId v = 0; v < gc().numNodes(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    residualDurations_[i] =
        completed_[i] ? shared_.durations_[i] : shared_.plannedLens_[i];
  }
  ResidualProblem residual;
  residual.starts = &executed_;
  residual.started = &started_;
  residual.durations = &residualDurations_;
  residual.releaseTime = now_;
  residual.windows = &*windows_;

  SolveRequest request;
  request.gc = &gc();
  request.profile = shared_.forecast_;
  request.deadline = deadline();
  request.context = shared_.ctx_;
  request.residual = &residual;
  request.options = shared_.options_.solverOptions;

  const SolveResult solved = shared_.resolveSolver_->solve(request);
  // Adopt the new plan only when it is feasible AND projects no worse
  // than the incumbent over the same residual state — a re-solve with a
  // weaker residual solver (e.g. the pin-aware greedy standing in for an
  // -LS plan) must never regress the plan it replaces. The incumbent is
  // projected the way it would actually continue: executed starts for the
  // pinned prefix, and plan starts clamped to `now` for the movable
  // remainder (runtime drift may have made early plan slots unreachable —
  // billing them would under-project the incumbent and mis-rank plans).
  bool adopt = solved.feasible;
  if (adopt) {
    // Dispatch-simulate the incumbent in topological order: started nodes
    // at their executed starts, movable nodes at max(plan, now, effective
    // end of every predecessor) — exactly where the dispatcher would put
    // them. Clamping only to `now` would bill movable nodes in slots the
    // plan cannot actually reach (e.g. before a running predecessor's
    // estimated completion) and reject genuinely better re-solves.
    Schedule projected(gc().numNodes());
    for (const TaskId v : gc().topoOrder()) {
      const auto i = static_cast<std::size_t>(v);
      if (started_[i]) {
        projected.setStart(v, executed_.start(v));
        continue;
      }
      Time start = std::max(plan_.start(v), now_);
      for (const TaskId p : gc().preds(v)) {
        start = std::max(start,
                         projected.start(p) +
                             residualDurations_[static_cast<std::size_t>(p)]);
      }
      projected.setStart(v, start);
    }
    const Cost incumbent = evaluateCostWithDurations(
        gc(), *shared_.forecast_, projected, residualDurations_);
    adopt = solved.cost <= incumbent;
  }
  ResolveRecord record;
  record.at = now_;
  record.wallMs = solved.wallMs;
  record.accepted = adopt;
  resolves_.push_back(record);
  if (adopt) {
    plan_ = solved.schedule;
    ++resolveAccepted_;
  }
  if (span.recording())
    span.arg("accepted", static_cast<std::int64_t>(adopt));
  return adopt;
}

void ReplayEngine::applyPolicy() {
  if (startedCount_ == static_cast<std::size_t>(numNodes())) return;

  deviationCached_ = false;
  PolicyEvent event;
  event.now = now_;
  event.deadline = deadline();
  event.intervalsSinceResolve = intervalIndexAt(now_) - baselineInterval_;
  event.completedCount = completedCount_;
  event.startedCount = startedCount_;
  event.totalNodes = static_cast<std::size_t>(numNodes());
  event.resolveCount = resolves_.size();
  event.carbonDeviation = [this] { return windowedDeviation(); };

  if (!policy_->shouldResolve(event)) return;
  attemptResolve();
  policy_->onResolve(event);

  // Re-arm the policy baselines: interval clock and the deviation window
  // (measured against the plan now in force).
  baselineInterval_ = intervalIndexAt(now_);
  if (!deviationCached_) {
    baselineObserved_ = evaluateCostPrefix(gc(), *shared_.actual_, executed_,
                                           shared_.durations_, now_);
  } else {
    baselineObserved_ = observedNow_;
  }
  baselinePlanned_ = evaluateCostPrefix(gc(), *shared_.forecast_, plan_,
                                        shared_.plannedLens_, now_);
  deviationCached_ = false;
}

Time ReplayEngine::step() {
  CAWO_REQUIRE(shared_.feasible_,
               "cannot step a replay without a feasible plan");
  CAWO_REQUIRE(!finished(), "replay already finished");
  CAWO_REQUIRE(!queue_.empty(),
               "online replay stalled: no running task but unfinished nodes");

  obs::TraceScope span("replay.event");
  const Time t = queue_.top().first;
  if (span.recording()) span.arg("at", static_cast<std::int64_t>(t));
  // Apply the whole completion batch at t in deterministic (time, id)
  // order before consulting the policy once.
  while (!queue_.empty() && queue_.top().first == t) {
    const TaskId v = queue_.top().second;
    queue_.pop();
    const auto i = static_cast<std::size_t>(v);
    completed_[i] = 1;
    ++completedCount_;
    finishTime_ = std::max(finishTime_, t);
    for (const TaskId s : gc().succs(v))
      if (--predsLeft_[static_cast<std::size_t>(s)] == 0)
        ready_.push_back(s);
  }
  now_ = t;

  if (!finished()) {
    applyPolicy();
    startReady();
  }
  return t;
}

OnlineResult ReplayEngine::run() {
  OnlineResult result;
  result.solver = shared_.options_.solver;
  result.policy = policySpec_;
  result.forecastCost = shared_.forecastCost_;
  result.solveWallMs = shared_.solveWallMs_;
  result.deadline = deadline();
  result.regretRatio = std::numeric_limits<double>::quiet_NaN();
  if (!shared_.feasible_) {
    result.error = shared_.error_;
    return result;
  }

  {
    obs::TraceScope span("replay.run");
    while (!finished()) step();
  }

  result.ran = true;
  result.actualCost = evaluateCostWithDurations(gc(), *shared_.actual_,
                                                executed_, shared_.durations_);
  result.finishTime = finishTime_;
  result.deadlineMet = finishTime_ <= deadline();
  result.resolveCount = resolves_.size();
  result.resolveAccepted = resolveAccepted_;
  result.resolves = resolves_;
  for (const ResolveRecord& r : resolves_) result.resolveWallMs += r.wallMs;

  result.clairvoyantFeasible = shared_.clairvoyantFeasible_;
  if (result.clairvoyantFeasible) {
    const Cost reference = shared_.clairvoyantCost_;
    result.clairvoyantCost = reference;
    result.regret = result.actualCost - reference;
    if (reference > 0) {
      result.regretRatio = static_cast<double>(result.actualCost) /
                           static_cast<double>(reference);
    } else if (result.actualCost == 0) {
      result.regretRatio = 1.0;
    }
  }
  return result;
}

std::vector<OnlineResult> replayOnline(
    const Instance& instance, const PowerProfile& forecast,
    const PowerProfile& actual, const OnlineOptions& options,
    const std::vector<std::string>& policies, const SolveContext* context) {
  CAWO_REQUIRE(!policies.empty(), "no rescheduling policies given");
  std::vector<PolicyPtr> rules;
  for (const std::string& policy : policies)
    rules.push_back(ReschedulePolicyRegistry::global().resolve(policy));

  const ReplayPlan plan(instance, forecast, actual, options, context);
  std::vector<OnlineResult> results;
  for (std::size_t p = 0; p < policies.size(); ++p)
    results.push_back(
        ReplayEngine(plan, policies[p], std::move(rules[p])).run());
  return results;
}

std::vector<OnlineResult> replayOnline(
    const Instance& instance, const std::string& actualSpec,
    const OnlineOptions& options, const std::vector<std::string>& policies,
    const SolveContext* context) {
  const ReplayProfiles profiles(instance, actualSpec);
  return replayOnline(instance, profiles.forecast(), profiles.actual(),
                      options, policies, context);
}

} // namespace cawo
