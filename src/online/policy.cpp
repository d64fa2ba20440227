#include "online/policy.hpp"

#include <utility>

#include "util/require.hpp"

namespace cawo {

ReschedulePolicyRegistry::ReschedulePolicyRegistry()
    : SpecRegistry("rescheduling policy") {}

ReschedulePolicyRegistry& ReschedulePolicyRegistry::global() {
  static ReschedulePolicyRegistry* instance = [] {
    auto* r = new ReschedulePolicyRegistry();
    registerBuiltinPolicies(*r);
    return r;
  }();
  return *instance;
}

PolicyPtr ReschedulePolicyRegistry::resolve(const std::string& specText) const {
  const Spec spec = Spec::parse(specText);
  PolicyPtr policy = factory(spec)(spec);
  CAWO_REQUIRE(policy != nullptr,
               "policy factory \"" + spec.name + "\" returned null");
  return policy;
}

// ---------------------------------------------------------------------------
// Built-in policies
// ---------------------------------------------------------------------------

namespace {

class StaticPolicy final : public ReschedulePolicy {
public:
  std::string name() const override { return "static"; }
  bool shouldResolve(const PolicyEvent&) override { return false; }
};

class PeriodicPolicy final : public ReschedulePolicy {
public:
  explicit PeriodicPolicy(std::int64_t every, std::string text)
      : every_(every), text_(std::move(text)) {}

  std::string name() const override { return text_; }

  bool shouldResolve(const PolicyEvent& event) override {
    return event.intervalsSinceResolve >= every_;
  }

private:
  std::int64_t every_;
  std::string text_;
};

class ReactivePolicy final : public ReschedulePolicy {
public:
  explicit ReactivePolicy(double threshold, std::string text)
      : threshold_(threshold), text_(std::move(text)) {}

  std::string name() const override { return text_; }

  bool shouldResolve(const PolicyEvent& event) override {
    return event.carbonDeviation && event.carbonDeviation() >= threshold_;
  }

private:
  double threshold_;
  std::string text_;
};

} // namespace

void registerBuiltinPolicies(ReschedulePolicyRegistry& registry) {
  registry.registerFactory(
      {"static", "static",
       "never re-solve: execute the offline plan, billed against actuals"},
      [](const Spec& spec) -> PolicyPtr {
        spec.requireKnownParams({});
        return std::make_unique<StaticPolicy>();
      });
  registry.registerFactory(
      {"periodic", "periodic:every=K",
       "re-solve the residual problem every K forecast intervals "
       "(default 1)"},
      [](const Spec& spec) -> PolicyPtr {
        spec.requireKnownParams({"every"});
        const std::int64_t every = spec.paramInt("every", 1);
        CAWO_REQUIRE(every >= 1, "policy spec \"" + spec.text +
                                     "\": every must be >= 1");
        return std::make_unique<PeriodicPolicy>(every, spec.text);
      });
  registry.registerFactory(
      {"reactive", "reactive:threshold=X",
       "re-solve when billed carbon deviates from the plan's forecast by "
       ">= X relative (default 0.1)"},
      [](const Spec& spec) -> PolicyPtr {
        spec.requireKnownParams({"threshold"});
        const double threshold = spec.paramDouble("threshold", 0.1);
        CAWO_REQUIRE(threshold > 0.0, "policy spec \"" + spec.text +
                                          "\": threshold must be positive");
        return std::make_unique<ReactivePolicy>(threshold, spec.text);
      });
}

} // namespace cawo
