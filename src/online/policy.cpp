#include "online/policy.hpp"

#include <utility>

#include "util/require.hpp"
#include "util/strings.hpp"

namespace cawo {

// ---------------------------------------------------------------------------
// PolicySpec
// ---------------------------------------------------------------------------

PolicySpec PolicySpec::parse(const std::string& specText) {
  const std::string text{trim(specText)};
  CAWO_REQUIRE(!text.empty(), "empty policy spec");
  PolicySpec spec;
  spec.text = text;
  const std::string where = "policy spec \"" + text + "\"";

  const std::size_t colon = text.find(':');
  if (colon == std::string::npos) {
    spec.name = text;
    return spec;
  }
  spec.name = std::string{trim(text.substr(0, colon))};
  CAWO_REQUIRE(!spec.name.empty(), where + ": missing policy name");
  const std::string paramText = text.substr(colon + 1);
  CAWO_REQUIRE(!trim(paramText).empty(),
               where + ": dangling ':' without parameters");
  for (const std::string& part : split(paramText, ',')) {
    const std::string item{trim(part)};
    CAWO_REQUIRE(!item.empty(), where + ": empty parameter");
    const std::size_t eq = item.find('=');
    CAWO_REQUIRE(eq != std::string::npos,
                 where + ": expected key=value, got \"" + item + "\"");
    const std::string key{trim(item.substr(0, eq))};
    const std::string value{trim(item.substr(eq + 1))};
    CAWO_REQUIRE(!key.empty() && !value.empty(),
                 where + ": expected key=value, got \"" + item + "\"");
    CAWO_REQUIRE(!spec.hasParam(key),
                 where + ": duplicate parameter \"" + key + "\"");
    spec.params.push_back({key, value});
  }
  return spec;
}

bool PolicySpec::hasParam(const std::string& key) const {
  for (const PolicyParam& p : params)
    if (p.key == key) return true;
  return false;
}

std::string PolicySpec::param(const std::string& key,
                              const std::string& fallback) const {
  for (const PolicyParam& p : params)
    if (p.key == key) return p.value;
  return fallback;
}

double PolicySpec::paramDouble(const std::string& key, double fallback) const {
  if (!hasParam(key)) return fallback;
  return parseDoubleStrict(
      "policy spec \"" + text + "\": parameter \"" + key + "\"",
      param(key, ""));
}

std::int64_t PolicySpec::paramInt(const std::string& key,
                                  std::int64_t fallback) const {
  if (!hasParam(key)) return fallback;
  return parseInt64Strict(
      "policy spec \"" + text + "\": parameter \"" + key + "\"",
      param(key, ""));
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

ReschedulePolicyRegistry& ReschedulePolicyRegistry::global() {
  static ReschedulePolicyRegistry* instance = [] {
    auto* r = new ReschedulePolicyRegistry();
    registerBuiltinPolicies(*r);
    return r;
  }();
  return *instance;
}

void ReschedulePolicyRegistry::registerPolicy(PolicyInfo info,
                                              Factory factory) {
  CAWO_REQUIRE(!info.name.empty(), "policy name must not be empty");
  CAWO_REQUIRE(info.name.find(':') == std::string::npos &&
                   info.name.find(',') == std::string::npos &&
                   info.name.find('=') == std::string::npos,
               "policy name \"" + info.name +
                   "\" must not contain spec syntax characters (:,=)");
  CAWO_REQUIRE(find(info.name) == nullptr,
               "duplicate rescheduling policy \"" + info.name + "\"");
  CAWO_REQUIRE(factory != nullptr,
               "policy \"" + info.name + "\" has no factory");
  entries_.push_back({std::move(info), std::move(factory)});
}

const ReschedulePolicyRegistry::Entry* ReschedulePolicyRegistry::find(
    const std::string& name) const {
  for (const Entry& e : entries_)
    if (e.info.name == name) return &e;
  return nullptr;
}

bool ReschedulePolicyRegistry::contains(const std::string& name) const {
  return find(name) != nullptr;
}

std::vector<std::string> ReschedulePolicyRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.info.name);
  return out;
}

const PolicyInfo& ReschedulePolicyRegistry::info(
    const std::string& name) const {
  const Entry* entry = find(name);
  CAWO_REQUIRE(entry != nullptr, "unknown rescheduling policy \"" + name +
                                     "\" (registered: " + syntaxSummary() +
                                     ")");
  return entry->info;
}

std::string ReschedulePolicyRegistry::syntaxSummary() const {
  std::string out;
  for (const Entry& e : entries_) {
    if (!out.empty()) out += ", ";
    out += e.info.syntax;
  }
  return out;
}

PolicyPtr ReschedulePolicyRegistry::resolve(const std::string& specText) const {
  const PolicySpec spec = PolicySpec::parse(specText);
  const Entry* entry = find(spec.name);
  CAWO_REQUIRE(entry != nullptr,
               "unknown rescheduling policy \"" + spec.name +
                   "\" in spec \"" + spec.text +
                   "\" — registered policies: " + syntaxSummary());
  PolicyPtr policy = entry->factory(spec);
  CAWO_REQUIRE(policy != nullptr,
               "policy factory \"" + spec.name + "\" returned null");
  return policy;
}

// ---------------------------------------------------------------------------
// Built-in policies
// ---------------------------------------------------------------------------

namespace {

/// Reject parameters the policy does not understand (typos must fail
/// loudly, mirroring the profile-source checkParams).
void checkParams(const PolicySpec& spec,
                 std::initializer_list<const char*> allowed) {
  for (const PolicyParam& p : spec.params) {
    bool known = false;
    for (const char* a : allowed)
      if (p.key == a) known = true;
    std::string list;
    for (const char* a : allowed) {
      if (!list.empty()) list += ", ";
      list += a;
    }
    CAWO_REQUIRE(known, "policy spec \"" + spec.text +
                            "\": unknown parameter \"" + p.key +
                            "\" for policy \"" + spec.name + "\" (known: " +
                            (list.empty() ? "none" : list) + ")");
  }
}

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
  registry.registerPolicy(
      {"static", "static",
       "never re-solve: execute the offline plan, billed against actuals"},
      [](const PolicySpec& spec) -> PolicyPtr {
        checkParams(spec, {});
        return std::make_unique<StaticPolicy>();
      });
  registry.registerPolicy(
      {"periodic", "periodic:every=K",
       "re-solve the residual problem every K forecast intervals "
       "(default 1)"},
      [](const PolicySpec& spec) -> PolicyPtr {
        checkParams(spec, {"every"});
        const std::int64_t every = spec.paramInt("every", 1);
        CAWO_REQUIRE(every >= 1, "policy spec \"" + spec.text +
                                     "\": every must be >= 1");
        return std::make_unique<PeriodicPolicy>(every, spec.text);
      });
  registry.registerPolicy(
      {"reactive", "reactive:threshold=X",
       "re-solve when billed carbon deviates from the plan's forecast by "
       ">= X relative (default 0.1)"},
      [](const PolicySpec& spec) -> PolicyPtr {
        checkParams(spec, {"threshold"});
        const double threshold = spec.paramDouble("threshold", 0.1);
        CAWO_REQUIRE(threshold > 0.0, "policy spec \"" + spec.text +
                                          "\": threshold must be positive");
        return std::make_unique<ReactivePolicy>(threshold, spec.text);
      });
}

} // namespace cawo
