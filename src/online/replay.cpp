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

/// Byte-level profile equality (same interval structure and budgets) —
/// decides whether the actual profile can share the forecast's extension
/// in the re-mapping case.
bool sameProfile(const PowerProfile& a, const PowerProfile& b) {
  if (a.numIntervals() != b.numIntervals()) return false;
  for (std::size_t j = 0; j < a.numIntervals(); ++j) {
    const Interval& x = a.interval(j);
    const Interval& y = b.interval(j);
    if (x.begin != y.begin || x.end != y.end || x.green != y.green)
      return false;
  }
  return true;
}

double quietNaN() { return std::numeric_limits<double>::quiet_NaN(); }

} // namespace

ReplayEngine::ReplayEngine(const Instance& instance,
                           const PowerProfile& forecast,
                           const PowerProfile& actual,
                           const OnlineOptions& options)
    : options_(options) {
  CAWO_REQUIRE(forecast.horizon() >= instance.deadline,
               "forecast profile must cover the instance deadline");
  CAWO_REQUIRE(actual.horizon() >= instance.deadline,
               "actual profile must cover the instance deadline");

  policy_ = ReschedulePolicyRegistry::global().resolve(options.policy);

  // Offline solve against the forecast. The context is built on the
  // instance graph; a re-mapping solver ignores it and reports its own
  // effective graph/profile/deadline, which the replay then runs under.
  const SolverRegistry& registry = SolverRegistry::global();
  const SolverPtr planner = registry.create(options.solver);
  if (options.sharedContext != nullptr) {
    CAWO_REQUIRE(&options.sharedContext->gc() == &instance.gc &&
                     &options.sharedContext->profile() == &forecast &&
                     options.sharedContext->deadline() == instance.deadline,
                 "OnlineOptions.sharedContext describes a different "
                 "(graph, forecast, deadline) than the replay");
    ctx_ = options.sharedContext;
  } else {
    ownedCtx_.emplace(instance.gc, forecast, instance.deadline);
    ctx_ = &*ownedCtx_;
  }
  const SolveResult solved = [&] {
    if (options.precomputedPlan != nullptr) return *options.precomputedPlan;
    SolveRequest request;
    request.gc = &instance.gc;
    request.profile = &forecast;
    request.deadline = instance.deadline;
    request.graph = &instance.graph;
    request.platform = &instance.platform;
    request.context = ctx_;
    request.options = options.solverOptions;
    return planner->solve(request);
  }();

  solveWallMs_ = solved.wallMs;
  forecastCost_ = solved.cost;
  planFeasible_ = solved.feasible;
  if (!planFeasible_) {
    planError_ = solved.validation.message.empty()
                     ? "offline solve infeasible"
                     : solved.validation.message;
  }

  // Effective problem: the instance as-is, or the re-mapped one.
  remappedGc_ = solved.remappedGc;
  forecastOwned_ = solved.extendedProfile;
  gc_ = remappedGc_ ? remappedGc_.get() : &instance.gc;
  forecast_ = forecastOwned_ ? forecastOwned_.get() : &forecast;
  deadline_ = solved.effectiveDeadline;
  if (sameProfile(actual, forecast)) {
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
  if (gc_ != &instance.gc || forecast_ != &forecast ||
      deadline_ != instance.deadline) {
    ownedCtx_.emplace(*gc_, *forecast_, deadline_);
    ctx_ = &*ownedCtx_;
  }

  // The re-solver: the planning solver itself when it is residual-capable,
  // otherwise the strongest greedy (its -LS pass is skipped on residuals
  // anyway, so "pressWR" is the natural fallback).
  resolveSolver_ = planner->info().supportsResidual
                       ? registry.create(options.solver)
                       : registry.create("pressWR");

  if (!planFeasible_) return;

  plan_ = solved.schedule;
  CAWO_REQUIRE(plan_.numNodes() == gc_->numNodes(),
               "the (precomputed) plan does not match the instance's "
               "effective graph");
  const auto n = static_cast<std::size_t>(gc_->numNodes());
  executed_ = Schedule(gc_->numNodes());
  started_.assign(n, 0);
  completed_.assign(n, 0);
  plannedLens_.resize(n);
  for (TaskId v = 0; v < gc_->numNodes(); ++v)
    plannedLens_[static_cast<std::size_t>(v)] = gc_->len(v);

  // Actual runtimes: one deterministic draw per non-trivial node, in node
  // order. Amplitude 0 keeps every duration exactly ω(u).
  durations_ = plannedLens_;
  CAWO_REQUIRE(options.runtimeNoise >= 0.0 && options.runtimeNoise < 1.0,
               "runtime noise amplitude must lie in [0, 1)");
  if (options.runtimeNoise > 0.0) {
    Rng rng(options.runtimeSeed);
    for (std::size_t i = 0; i < n; ++i) {
      if (plannedLens_[i] == 0) continue;
      const double factor =
          1.0 + rng.uniformReal(-options.runtimeNoise, options.runtimeNoise);
      durations_[i] = std::max<Time>(
          1, static_cast<Time>(std::llround(
                 static_cast<double>(plannedLens_[i]) * factor)));
    }
  }

  predsLeft_.assign(n, 0);
  for (TaskId v = 0; v < gc_->numNodes(); ++v) {
    predsLeft_[static_cast<std::size_t>(v)] =
        static_cast<TaskId>(gc_->preds(v).size());
    if (predsLeft_[static_cast<std::size_t>(v)] == 0) ready_.push_back(v);
  }

  windows_.emplace(ctx_->windowState());
  residualDurations_.resize(n);

  startReady();
}

std::int64_t ReplayEngine::intervalIndexAt(Time t) const {
  if (t >= forecast_->horizon())
    return static_cast<std::int64_t>(forecast_->numIntervals());
  return static_cast<std::int64_t>(forecast_->indexAt(t));
}

void ReplayEngine::startNode(TaskId v, Time at) {
  executed_.setStart(v, at);
  started_[static_cast<std::size_t>(v)] = 1;
  ++startedCount_;
  // The live pinned-prefix windows: one incremental repair per event.
  windows_->place(v, at);
  queue_.emplace(at + durations_[static_cast<std::size_t>(v)], v);
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
  observedNow_ =
      evaluateCostPrefix(*gc_, *actual_, executed_, durations_, now_);
  plannedNow_ =
      evaluateCostPrefix(*gc_, *forecast_, plan_, plannedLens_, now_);
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
  for (TaskId v = 0; v < gc_->numNodes(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    residualDurations_[i] = completed_[i] ? durations_[i] : plannedLens_[i];
  }
  ResidualProblem residual;
  residual.starts = &executed_;
  residual.started = &started_;
  residual.durations = &residualDurations_;
  residual.releaseTime = now_;
  residual.windows = &*windows_;

  SolveRequest request;
  request.gc = gc_;
  request.profile = forecast_;
  request.deadline = deadline_;
  request.context = ctx_;
  request.residual = &residual;
  request.options = options_.solverOptions;

  const SolveResult solved = resolveSolver_->solve(request);
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
    Schedule projected(gc_->numNodes());
    for (const TaskId v : gc_->topoOrder()) {
      const auto i = static_cast<std::size_t>(v);
      if (started_[i]) {
        projected.setStart(v, executed_.start(v));
        continue;
      }
      Time start = std::max(plan_.start(v), now_);
      for (const TaskId p : gc_->preds(v)) {
        start = std::max(start,
                         projected.start(p) +
                             residualDurations_[static_cast<std::size_t>(p)]);
      }
      projected.setStart(v, start);
    }
    const Cost incumbent = evaluateCostWithDurations(
        *gc_, *forecast_, projected, residualDurations_);
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
  event.deadline = deadline_;
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
    baselineObserved_ =
        evaluateCostPrefix(*gc_, *actual_, executed_, durations_, now_);
  } else {
    baselineObserved_ = observedNow_;
  }
  baselinePlanned_ =
      evaluateCostPrefix(*gc_, *forecast_, plan_, plannedLens_, now_);
  deviationCached_ = false;
}

Time ReplayEngine::step() {
  CAWO_REQUIRE(planFeasible_, "cannot step a replay without a feasible plan");
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
    for (const TaskId s : gc_->succs(v))
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
  result.solver = options_.solver;
  result.policy = options_.policy;
  result.forecastCost = forecastCost_;
  result.solveWallMs = solveWallMs_;
  result.deadline = deadline_;
  result.regretRatio = quietNaN();
  if (!planFeasible_) {
    result.error = planError_;
    return result;
  }

  {
    obs::TraceScope span("replay.run");
    while (!finished()) step();
  }

  result.ran = true;
  result.actualCost =
      evaluateCostWithDurations(*gc_, *actual_, executed_, durations_);
  result.finishTime = finishTime_;
  result.deadlineMet = finishTime_ <= deadline_;
  result.resolveCount = resolves_.size();
  result.resolveAccepted = resolveAccepted_;
  result.resolves = resolves_;
  for (const ResolveRecord& r : resolves_) result.resolveWallMs += r.wallMs;
  return result;
}

void applyClairvoyantReference(OnlineResult& result, bool feasible,
                               Cost clairvoyantCost) {
  result.clairvoyantFeasible = feasible;
  result.regretRatio = quietNaN();
  if (!feasible || !result.ran) return;
  result.clairvoyantCost = clairvoyantCost;
  result.regret = result.actualCost - clairvoyantCost;
  if (clairvoyantCost > 0) {
    result.regretRatio = static_cast<double>(result.actualCost) /
                         static_cast<double>(clairvoyantCost);
  } else if (result.actualCost == 0) {
    result.regretRatio = 1.0;
  }
}

OnlineResult replayOnline(const Instance& instance,
                          const PowerProfile& forecast,
                          const PowerProfile& actual,
                          const OnlineOptions& options) {
  OnlineResult result;
  result.solver = options.solver;
  result.policy = options.policy;
  result.regretRatio = std::numeric_limits<double>::quiet_NaN();
  try {
    ReplayEngine engine(instance, forecast, actual, options);
    result = engine.run();
  } catch (const std::exception& e) {
    result.error = e.what();
    return result;
  }
  if (!result.ran || !options.clairvoyant) return result;

  // Clairvoyant reference: the same solver planning directly against the
  // (unextended) actual profile, billed the ordinary offline way.
  try {
    const SolverRegistry& registry = SolverRegistry::global();
    SolveContext ctx(instance.gc, actual, instance.deadline);
    SolveRequest request;
    request.gc = &instance.gc;
    request.profile = &actual;
    request.deadline = instance.deadline;
    request.graph = &instance.graph;
    request.platform = &instance.platform;
    request.context = &ctx;
    request.options = options.solverOptions;
    const SolveResult solved = registry.create(options.solver)->solve(request);
    applyClairvoyantReference(result, solved.feasible, solved.cost);
  } catch (const std::exception&) {
    result.clairvoyantFeasible = false;
  }
  return result;
}

OnlineResult replayOnline(const Instance& instance,
                          const std::string& actualSpec,
                          const OnlineOptions& options) {
  const ProfileRequest request = instanceProfileRequest(instance);
  if (actualSpec.empty()) {
    // One-spec semantics: the instance's own scenario spec resolves to a
    // forecast/actual pair (`+noise` = forecast error).
    const ProfilePair pair =
        generateForecastActualPair(instance.spec.scenario, request);
    return replayOnline(instance, pair.forecast, pair.actual, options);
  }
  requireForecastWithoutNoise(instance.spec.scenario, actualSpec);
  const PowerProfile actual = generateProfile(actualSpec, request);
  return replayOnline(instance, instance.profile, actual, options);
}

std::vector<OnlineResult> replayOnlinePolicies(
    const Instance& instance, const PowerProfile& forecast,
    const PowerProfile& actual, const OnlineOptions& options,
    const std::vector<std::string>& policies) {
  CAWO_REQUIRE(!policies.empty(), "no rescheduling policies given");
  std::vector<OnlineResult> results;
  results.reserve(policies.size());

  // The offline plan and the per-instance context are policy-independent:
  // derive each once up front and hand them to every replay.
  std::optional<SolveContext> ctx;
  ctx.emplace(instance.gc, forecast, instance.deadline);
  SolveResult plan;
  bool planSolved = false;
  std::string planError;
  try {
    SolveRequest request;
    request.gc = &instance.gc;
    request.profile = &forecast;
    request.deadline = instance.deadline;
    request.graph = &instance.graph;
    request.platform = &instance.platform;
    request.context = &*ctx;
    request.options = options.solverOptions;
    plan = SolverRegistry::global().create(options.solver)->solve(request);
    planSolved = true;
  } catch (const std::exception& e) {
    planError = e.what();
  }

  OnlineOptions opts = options;
  bool haveReference = false;
  bool referenceFeasible = false;
  Cost referenceCost = 0;
  for (const std::string& policy : policies) {
    opts.policy = policy;
    if (!planSolved) {
      OnlineResult failed;
      failed.solver = options.solver;
      failed.policy = policy;
      failed.regretRatio = quietNaN();
      failed.error = planError;
      results.push_back(std::move(failed));
      continue;
    }
    opts.precomputedPlan = &plan;
    opts.sharedContext = &*ctx;
    // The clairvoyant reference is policy-independent too: solve it with
    // the first replay, spread it across the rest.
    opts.clairvoyant = options.clairvoyant && !haveReference;
    OnlineResult r = replayOnline(instance, forecast, actual, opts);
    if (options.clairvoyant) {
      if (haveReference) {
        applyClairvoyantReference(r, referenceFeasible, referenceCost);
      } else if (r.ran) {
        haveReference = true;
        referenceFeasible = r.clairvoyantFeasible;
        referenceCost = r.clairvoyantCost;
      }
    }
    results.push_back(std::move(r));
  }
  return results;
}

std::vector<OnlineResult> replayOnlinePolicies(
    const Instance& instance, const std::string& actualSpec,
    const OnlineOptions& options, const std::vector<std::string>& policies) {
  const ProfileRequest request = instanceProfileRequest(instance);
  if (actualSpec.empty()) {
    const ProfilePair pair =
        generateForecastActualPair(instance.spec.scenario, request);
    return replayOnlinePolicies(instance, pair.forecast, pair.actual,
                                options, policies);
  }
  requireForecastWithoutNoise(instance.spec.scenario, actualSpec);
  const PowerProfile actual = generateProfile(actualSpec, request);
  return replayOnlinePolicies(instance, instance.profile, actual, options,
                              policies);
}

} // namespace cawo
