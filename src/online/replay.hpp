#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "core/est_lst.hpp"
#include "core/schedule.hpp"
#include "core/solve_context.hpp"
#include "online/policy.hpp"
#include "sim/instance.hpp"
#include "solver/solver.hpp"

/// \file replay.hpp
/// The online execution replay engine (see DESIGN.md, "Online execution
/// engine").
///
/// The paper grades CaWoSched offline: the solver sees one carbon profile
/// and the schedule is billed against that same profile. This engine plays
/// the schedule *forward through reality*: the solver plans against a
/// **forecast** profile, execution is billed against an **actual** profile,
/// per-task runtimes may drift from ω(u), and at every task-completion
/// event a pluggable `ReschedulePolicy` decides whether the not-yet-started
/// remainder is re-solved against the latest state.
///
/// Execution model — a deterministic event loop over task completions:
///   * a task starts at max(plan start, release by real predecessor
///     completions); Gc's per-processor chain edges make predecessor
///     release subsume processor exclusivity;
///   * completed and running tasks are pinned; the engine maintains the
///     pinned-prefix EST/LST windows *incrementally* (`WindowState::place`
///     per start event — the PR-4 worklist machinery, never a full sweep);
///   * re-solves build a residual `SolveRequest` (pinned starts, effective
///     durations, release time, the live windows) against the shared
///     per-replay `SolveContext`, so each re-solve pays only for the
///     movable remainder; an infeasible re-solve is rejected and the
///     previous plan keeps executing.
///
/// With the `static` policy, zero runtime perturbation and
/// actual == forecast, the replay reproduces the offline solver's cost bit
/// for bit (pinned by test) — the engine is a strict generalisation of the
/// offline evaluation.

namespace cawo {

/// Knobs of one replay call, shared by every policy it runs.
struct OnlineOptions {
  /// Registry solver producing the offline plan (and the clairvoyant
  /// reference solve against actuals).
  std::string solver = "pressWR-LS";
  /// Per-task multiplicative runtime perturbation amplitude in [0, 1):
  /// actual duration = max(1, round(ω(u) · (1 + U(−A, A)))). 0 = exact.
  double runtimeNoise = 0.0;
  std::uint64_t runtimeSeed = 1;
  /// Forwarded to every solve (block-size, ls-radius, alpha, ...).
  SolverOptions solverOptions;
};

/// One re-solve attempt.
struct ResolveRecord {
  Time at = 0;          ///< event time of the attempt
  double wallMs = 0.0;  ///< wall time of the residual solve
  /// The new plan was adopted: feasible AND projected no worse than the
  /// incumbent. Otherwise the old plan keeps executing.
  bool accepted = false;
};

/// Everything one replay produced.
struct OnlineResult {
  std::string solver;
  std::string policy;
  bool ran = false;   ///< false: the offline solve failed (see `error`)
  std::string error;  ///< why the replay did not run

  Cost forecastCost = 0;    ///< offline plan billed against the forecast
  Cost actualCost = 0;      ///< executed trajectory billed against actuals
  Cost clairvoyantCost = 0; ///< same solver solved against actuals
  bool clairvoyantFeasible = false;
  /// actualCost − clairvoyantCost (meaningful when clairvoyantFeasible;
  /// can be negative — the clairvoyant reference is heuristic, not a
  /// proven optimum).
  Cost regret = 0;
  /// actualCost / clairvoyantCost; NaN when undefined.
  double regretRatio = 0.0;

  std::size_t resolveCount = 0;    ///< re-solve attempts
  std::size_t resolveAccepted = 0; ///< attempts that replaced the plan
  double resolveWallMs = 0.0;      ///< Σ wall time over all attempts
  double solveWallMs = 0.0;        ///< wall time of the offline solve
  std::vector<ResolveRecord> resolves;

  Time deadline = 0;   ///< effective deadline the replay ran under
  Time finishTime = 0; ///< completion time of the last task
  bool deadlineMet = false;
};

/// The forecast/actual pair a replay of `instance` plays (docs/formats.md,
/// "Forecast vs actual"). An empty `actualSpec` resolves the instance's own
/// scenario spec to its noise pair (see generateForecastActualPair).
/// Otherwise the forecast is the instance profile itself — not a copy, so a
/// context built on it still matches — and the actual is generated from
/// `actualSpec` after `requireForecastWithoutNoise`. `instance` must
/// outlive the pair.
class ReplayProfiles {
public:
  ReplayProfiles(const Instance& instance, const std::string& actualSpec);

  const PowerProfile& forecast() const {
    return pairForecast_ ? *pairForecast_ : *instanceProfile_;
  }
  const PowerProfile& actual() const { return actual_; }

private:
  const PowerProfile* instanceProfile_;
  std::optional<PowerProfile> pairForecast_; ///< the noise pair's forecast
  PowerProfile actual_;
};

/// The policy-independent half of a replay, built once per `replayOnline`
/// call and shared by one `ReplayEngine` per policy: the offline plan, the
/// effective problem it runs under (for a re-mapping solver: the re-mapped
/// graph, the extended profiles and a context re-seated on them), the
/// residual re-solver, the actual runtimes and the clairvoyant reference.
/// Engines sharing a plan run one after another (the context memoizes).
/// The instance, both profiles and any given context must outlive it.
class ReplayPlan {
public:
  /// Solves the plan against `forecast` on `context` — which must describe
  /// (instance.gc, forecast, instance.deadline), as `Solver::solve` checks
  /// — or on a context of its own. A solve that throws (unknown solver,
  /// capability mismatch) or returns an infeasible plan, and an input out
  /// of range (profiles not covering the deadline, runtime noise outside
  /// [0, 1)), is recorded in `error()`, not thrown.
  ReplayPlan(const Instance& instance, const PowerProfile& forecast,
             const PowerProfile& actual, const OnlineOptions& options,
             const SolveContext* context = nullptr);

  /// The plan is feasible and engines can run it; else `error()` says why.
  bool feasible() const { return feasible_; }
  const std::string& error() const { return error_; }

private:
  friend class ReplayEngine;

  void build(const Instance& instance, const PowerProfile& forecast,
             const PowerProfile& actual, const SolveContext* context);

  OnlineOptions options_;
  bool feasible_ = false;
  std::string error_;
  Cost forecastCost_ = 0;
  double solveWallMs_ = 0.0;
  Schedule schedule_; ///< the offline plan

  // Effective problem (differs from the instance for re-mapping solvers).
  const EnhancedGraph* gc_ = nullptr;
  const PowerProfile* forecast_ = nullptr;
  const PowerProfile* actual_ = nullptr;
  Time deadline_ = 0;
  std::shared_ptr<const EnhancedGraph> remappedGc_;    // keepalive
  std::shared_ptr<const PowerProfile> forecastOwned_;  // keepalive
  std::optional<PowerProfile> actualOwned_; // extended copy (remap case)
  const SolveContext* ctx_ = nullptr;    ///< context of the effective problem
  std::optional<SolveContext> ownedCtx_; ///< when none was given or re-seated
  SolverPtr resolveSolver_;              ///< residual-capable re-solver

  std::vector<Time> plannedLens_; ///< ω(u) of the effective graph
  std::vector<Time> durations_;   ///< actual (perturbed) durations

  bool clairvoyantFeasible_ = false;
  Cost clairvoyantCost_ = 0;
};

/// Event-driven replay of one policy over a shared `ReplayPlan`. Construct,
/// then either `run()` in one go or `step()` through completion-event
/// batches (tests use the fine-grained form to check the incremental
/// windows after every event). The plan must outlive the engine.
class ReplayEngine {
public:
  /// `rule` is the policy resolved from the spec `policy`, which the
  /// result reports verbatim. Over an infeasible plan, `run()` reports
  /// `plan.error()` without stepping.
  ReplayEngine(const ReplayPlan& plan, std::string policy, PolicyPtr rule);

  /// All tasks completed?
  bool finished() const {
    return completedCount_ == static_cast<std::size_t>(numNodes());
  }

  /// Advance to the next completion-event batch: start everything
  /// startable, apply the batch's completions, consult the policy (and
  /// possibly re-solve). Returns the batch time. Requires a feasible plan
  /// and `!finished()`.
  Time step();

  /// Drive to completion and assemble the result. Also usable after
  /// partial manual stepping.
  OnlineResult run();

  // Introspection (tests and diagnostics).
  const EnhancedGraph& gc() const { return *shared_.gc_; }
  Time deadline() const { return shared_.deadline_; }
  Time now() const { return now_; }
  const WindowState& windows() const { return *windows_; }
  const Schedule& executedStarts() const { return executed_; }
  const std::vector<std::uint8_t>& startedMask() const { return started_; }
  std::size_t resolveCount() const { return resolves_.size(); }

private:
  TaskId numNodes() const { return gc().numNodes(); }
  void startReady();
  void startNode(TaskId v, Time at);
  void applyPolicy();
  bool attemptResolve();
  double windowedDeviation();
  std::int64_t intervalIndexAt(Time t) const;

  const ReplayPlan& shared_;
  std::string policySpec_;
  PolicyPtr policy_;

  Schedule plan_;                     ///< current plan (complete schedule)
  Schedule executed_;                 ///< actual starts (unset = unstarted)
  std::vector<std::uint8_t> started_, completed_;
  std::vector<TaskId> predsLeft_;
  /// Unstarted tasks whose predecessors have all completed — each task
  /// enters exactly once (when its last predecessor completes) and is
  /// compacted out once started, keeping dispatch scans proportional to
  /// the ready frontier instead of N.
  std::vector<TaskId> ready_;
  std::optional<WindowState> windows_; ///< live pinned-prefix windows
  std::size_t startedCount_ = 0, completedCount_ = 0;
  Time now_ = 0;
  Time finishTime_ = 0;

  using CompletionEvent = std::pair<Time, TaskId>;
  std::priority_queue<CompletionEvent, std::vector<CompletionEvent>,
                      std::greater<CompletionEvent>>
      queue_;

  // Policy bookkeeping.
  std::int64_t baselineInterval_ = 0;
  Cost baselineObserved_ = 0;
  Cost baselinePlanned_ = 0;
  bool deviationCached_ = false;
  double deviationValue_ = 0.0;
  Cost observedNow_ = 0, plannedNow_ = 0;
  std::vector<ResolveRecord> resolves_;
  std::size_t resolveAccepted_ = 0;
  std::vector<Time> residualDurations_; ///< scratch for re-solves
};

/// Replay one instance under each of `policies`, in order — the one entry
/// point behind every replay surface (`cawosched-cli replay`, the campaign
/// online mode, serve's `replay`, `bench_online_regret`,
/// `examples/online_replay`). Every policy is resolved first, so an
/// unknown spec throws PreconditionError before any solve; then one
/// `ReplayPlan` is built and one `ReplayEngine` per policy runs on it.
/// When the plan cannot be built (the solve throws or is infeasible, or an
/// input is out of range), each policy gets a `ran == false` row carrying
/// the error. `context` is forwarded to the plan (see `ReplayPlan`).
std::vector<OnlineResult> replayOnline(
    const Instance& instance, const PowerProfile& forecast,
    const PowerProfile& actual, const OnlineOptions& options,
    const std::vector<std::string>& policies,
    const SolveContext* context = nullptr);

/// The same, playing the `ReplayProfiles(instance, actualSpec)` pair.
std::vector<OnlineResult> replayOnline(
    const Instance& instance, const std::string& actualSpec,
    const OnlineOptions& options, const std::vector<std::string>& policies,
    const SolveContext* context = nullptr);

} // namespace cawo
