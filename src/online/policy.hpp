#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "util/spec.hpp"
#include "util/types.hpp"

/// \file policy.hpp
/// Pluggable rescheduling policies for the online execution engine (see
/// DESIGN.md, "Online execution engine").
///
/// The replay engine consults a `ReschedulePolicy` at every
/// task-completion event batch: the policy decides whether the residual
/// problem (the not-yet-started remainder) should be re-solved against the
/// latest information. Policies are named by specs in the grammar profile
/// sources use (util/spec.hpp), without the `+noise` modifier:
///
///   static                       never re-solve — execute the offline plan
///   periodic:every=K             re-solve once K forecast intervals elapse
///                                since the last (attempted) re-solve
///   reactive:threshold=X         re-solve when the carbon billed so far
///                                deviates from the plan's forecast by ≥ X
///                                (relative), then re-arm
///
/// The `ReschedulePolicyRegistry` is a `SpecRegistry`, like
/// `ProfileSourceRegistry`: built-ins self-register on first use, new
/// policies plug in through `ReschedulePolicyRegistry::global()
/// .registerFactory`, and every surface that takes a policy
/// (`cawosched-cli replay`, the campaign `policies` axis,
/// `bench_online_regret`) accepts any registered spec.

namespace cawo {

/// What a policy sees at one completion-event batch. Cheap signals are
/// precomputed; the carbon-deviation signal costs two prefix sweeps and is
/// provided lazily (memoized per event by the engine).
struct PolicyEvent {
  Time now = 0;      ///< batch time (some tasks just completed)
  Time deadline = 0; ///< the instance deadline
  /// Forecast intervals fully elapsed since the last re-solve attempt (or
  /// since execution start if none).
  std::int64_t intervalsSinceResolve = 0;
  std::size_t completedCount = 0;
  std::size_t startedCount = 0;
  std::size_t totalNodes = 0;
  std::size_t resolveCount = 0; ///< re-solve attempts so far
  /// Relative deviation of the carbon billed so far (executed prefix
  /// against the *actual* profile) from the plan's forecast of the same
  /// window: |observed − planned| / max(planned, 1). Lazy — only policies
  /// that read it pay for it.
  std::function<double()> carbonDeviation;
};

/// Decides, event by event, whether to re-solve the residual problem. A
/// policy instance lives for one replay and may keep state (the built-ins
/// re-arm their trigger after each attempt).
class ReschedulePolicy {
public:
  virtual ~ReschedulePolicy() = default;

  /// The resolved spec this instance was created from.
  virtual std::string name() const = 0;

  /// True to attempt a re-solve at this event. Called once per completion
  /// batch, after the completions are applied.
  virtual bool shouldResolve(const PolicyEvent& event) = 0;

  /// Notification that a re-solve was attempted (accepted or not) — the
  /// built-ins reset their periodic/deviation baselines here.
  virtual void onResolve(const PolicyEvent& event) { (void)event; }
};

using PolicyPtr = std::unique_ptr<ReschedulePolicy>;

/// A factory receives the parsed spec (for its parameters) and returns a
/// fresh policy instance for one replay.
using PolicyFactory = std::function<PolicyPtr(const Spec&)>;

/// Name → factory registry over every rescheduling policy.
class ReschedulePolicyRegistry : public SpecRegistry<PolicyFactory> {
public:
  ReschedulePolicyRegistry();

  /// The process-wide registry, with the built-in policies pre-registered:
  /// "static", "periodic" and "reactive".
  static ReschedulePolicyRegistry& global();

  /// Parse `specText`, check its name is registered, and instantiate the
  /// policy. Throws PreconditionError listing every registered policy.
  PolicyPtr resolve(const std::string& specText) const;
};

/// Register the built-in policies into `registry` (called once by
/// `global()`).
void registerBuiltinPolicies(ReschedulePolicyRegistry& registry);

} // namespace cawo
