#include "exp/campaign.hpp"

#include <fstream>
#include <limits>
#include <sstream>

#include "exp/json.hpp"
#include "online/policy.hpp"
#include "sim/runner.hpp"
#include "solver/registry.hpp"
#include "util/require.hpp"
#include "util/strings.hpp"

namespace cawo {

namespace {

std::vector<std::string> splitList(const std::string& value) {
  std::vector<std::string> items;
  for (const std::string& part : split(value, ',')) {
    const std::string item{trim(part)};
    if (!item.empty()) items.push_back(item);
  }
  return items;
}

std::string keyLabel(const std::string& key) {
  return "campaign key \"" + key + "\"";
}

int parseIntKey(const std::string& key, const std::string& token) {
  const std::int64_t v = parseInt64Strict(keyLabel(key), token);
  // Never truncate: a wrapped value would silently run a different
  // experiment than the one requested.
  CAWO_REQUIRE(v >= std::numeric_limits<int>::min() &&
                   v <= std::numeric_limits<int>::max(),
               keyLabel(key) + ": \"" + token + "\" is out of range");
  return static_cast<int>(v);
}

std::vector<std::string> nonEmptyList(const std::string& key,
                                      const std::string& value) {
  const std::vector<std::string> items = splitList(value);
  CAWO_REQUIRE(!items.empty(),
               "campaign key \"" + key +
                   "\" has an empty value — an empty axis would erase the "
                   "whole cross-product");
  return items;
}

/// Validate a profile spec now with a dry-run generation at a tiny
/// horizon: unknown sources, parameter typos, out-of-range values and
/// unreadable trace files all fail at campaign-parse time instead of hours
/// into a sweep. (A trace that is long enough for this probe can still
/// turn out too short for a real deadline — that one case remains a
/// run-time error.)
void probeProfileSpec(const std::string& specText) {
  ProfileRequest probe;
  probe.horizon = 1;
  probe.sumIdle = 1;
  probe.sumWork = 1;
  (void)generateProfile(specText, probe);
}

} // namespace

std::size_t CampaignSpec::cellCount() const {
  std::size_t tasksAxis = 0;
  for (const WorkflowFamily family : families) {
    if (family == WorkflowFamily::Bacass && bacassTasks > 0) tasksAxis += 1;
    else tasksAxis += tasks.size();
  }
  return tasksAxis * nodesPerType.size() * seeds.size() * scenarios.size() *
         deadlineFactors.size();
}

void setCampaignKey(CampaignSpec& spec, const std::string& key,
                    const std::string& value) {
  if (key == "name") {
    const std::string trimmed{trim(value)};
    CAWO_REQUIRE(!trimmed.empty(), "campaign key \"name\" has an empty value");
    spec.name = trimmed;
  } else if (key == "families") {
    // Every list key parses into a local first, so a rejected value never
    // leaves the spec with a half-cleared axis.
    std::vector<WorkflowFamily> families;
    for (const std::string& item : nonEmptyList(key, value))
      families.push_back(familyFromName(item));
    spec.families = std::move(families);
  } else if (key == "tasks") {
    std::vector<int> tasks;
    for (const std::string& item : nonEmptyList(key, value)) {
      const int n = parseIntKey(key, item);
      CAWO_REQUIRE(n > 0, "campaign key \"tasks\": sizes must be positive");
      tasks.push_back(n);
    }
    spec.tasks = std::move(tasks);
  } else if (key == "bacass-tasks") {
    const int n = parseIntKey(key, std::string{trim(value)});
    CAWO_REQUIRE(n >= 0,
                 "campaign key \"bacass-tasks\" must be >= 0 (0 = use the "
                 "tasks axis)");
    spec.bacassTasks = n;
  } else if (key == "nodes-per-type") {
    std::vector<int> nodes;
    for (const std::string& item : nonEmptyList(key, value)) {
      const int n = parseIntKey(key, item);
      CAWO_REQUIRE(n > 0,
                   "campaign key \"nodes-per-type\": sizes must be positive");
      nodes.push_back(n);
    }
    spec.nodesPerType = std::move(nodes);
  } else if (key == "scenarios") {
    // Profile specs carry commas of their own ("sine:period=24,amp=0.5"),
    // so the axis splits with splitSpecList, not the plain comma split.
    std::vector<std::string> scenarios = splitSpecList(value);
    CAWO_REQUIRE(!scenarios.empty(),
                 "campaign key \"" + key +
                     "\" has an empty value — an empty axis would erase the "
                     "whole cross-product");
    if (scenarios.size() == 1 && scenarios[0] == "all") {
      scenarios = paperScenarioNames();
    } else {
      for (const std::string& item : scenarios) probeProfileSpec(item);
    }
    spec.scenarios = std::move(scenarios);
  } else if (key == "deadline-factors") {
    std::vector<double> factors;
    for (const std::string& item : nonEmptyList(key, value)) {
      const double f = parseDoubleStrict(keyLabel(key), item);
      CAWO_REQUIRE(f >= 1.0,
                   "campaign key \"deadline-factors\": factors below 1.0 are "
                   "infeasible by definition of D");
      factors.push_back(f);
    }
    spec.deadlineFactors = std::move(factors);
  } else if (key == "seeds") {
    std::vector<std::uint64_t> seeds;
    for (const std::string& item : nonEmptyList(key, value))
      seeds.push_back(parseUint64Strict(keyLabel(key), item));
    spec.seeds = std::move(seeds);
  } else if (key == "intervals") {
    const int intervals = parseIntKey(key, std::string{trim(value)});
    CAWO_REQUIRE(intervals > 0, "campaign key \"intervals\" must be positive");
    spec.numIntervals = intervals;
  } else if (key == "algos") {
    const std::string trimmed{trim(value)};
    CAWO_REQUIRE(!trimmed.empty(),
                 "campaign key \"algos\" has an empty value");
    spec.algos = trimmed;
  } else if (key == "threads") {
    const int t = parseIntKey(key, std::string{trim(value)});
    CAWO_REQUIRE(t >= 0, "campaign key \"threads\" must be >= 0");
    spec.threads = static_cast<unsigned>(t);
  } else if (key == "online") {
    const std::string v{trim(value)};
    CAWO_REQUIRE(v == "0" || v == "1" || v == "true" || v == "false",
                 "campaign key \"online\" must be 0/1/true/false");
    spec.online = v == "1" || v == "true";
  } else if (key == "actual") {
    const std::string v{trim(value)};
    if (v.empty()) {
      spec.actual.clear();
    } else {
      probeProfileSpec(v);
      spec.actual = v;
    }
  } else if (key == "policies") {
    // Policy specs carry commas of their own ("periodic:every=4"), so the
    // axis splits with splitSpecList, like scenarios.
    const std::vector<std::string> policies = splitSpecList(value);
    CAWO_REQUIRE(!policies.empty(),
                 "campaign key \"policies\" has an empty value — an empty "
                 "axis would erase the whole online sweep");
    for (const std::string& item : policies)
      (void)ReschedulePolicyRegistry::global().resolve(item);
    spec.policies = policies;
  } else if (key == "runtime-noise") {
    const double a = parseDoubleStrict(keyLabel(key), std::string{trim(value)});
    CAWO_REQUIRE(a >= 0.0 && a < 1.0,
                 "campaign key \"runtime-noise\" must lie in [0, 1)");
    spec.runtimeNoise = a;
  } else {
    CAWO_REQUIRE(false,
                 "unknown campaign key \"" + key +
                     "\" (known: name, families, tasks, bacass-tasks, "
                     "nodes-per-type, scenarios, deadline-factors, seeds, "
                     "intervals, algos, threads, online, actual, policies, "
                     "runtime-noise)");
  }
}

namespace {

/// Apply one member of a JSON campaign object: scalars are stringified,
/// arrays are joined into the comma-list form, then routed through
/// `setCampaignKey` like every other input surface.
void setCampaignKeyJson(CampaignSpec& spec, const std::string& key,
                        const JsonValue& value) {
  auto scalarToString = [&](const JsonValue& v) -> std::string {
    switch (v.kind()) {
      case JsonValue::Kind::String: return v.asString();
      case JsonValue::Kind::Number:
        return v.isInteger() ? std::to_string(v.asInt())
                             : jsonNumber(v.asDouble());
      default:
        CAWO_REQUIRE(false, "campaign key \"" + key +
                                "\": expected a string, number or array");
        return {};
    }
  };
  if (value.kind() == JsonValue::Kind::Array) {
    std::string joined;
    for (const JsonValue& item : value.asArray()) {
      if (!joined.empty()) joined += ",";
      joined += scalarToString(item);
    }
    setCampaignKey(spec, key, joined);
  } else {
    setCampaignKey(spec, key, scalarToString(value));
  }
}

} // namespace

CampaignSpec parseCampaignText(const std::string& text) {
  CampaignSpec spec;
  const std::string_view body = trim(text);
  if (!body.empty() && body.front() == '{') {
    const JsonValue doc = JsonValue::parse(text);
    for (const std::string& key : doc.objectKeys())
      setCampaignKeyJson(spec, key, doc.at(key));
    return spec;
  }
  std::istringstream in(text);
  std::string line;
  int lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    const std::string_view stripped = trim(line);
    if (stripped.empty() || stripped.front() == '#') continue;
    const auto eq = stripped.find('=');
    CAWO_REQUIRE(eq != std::string_view::npos,
                 "campaign file line " + std::to_string(lineNo) +
                     ": expected \"key = value\", got \"" + line + "\"");
    const std::string key{trim(stripped.substr(0, eq))};
    const std::string value{trim(stripped.substr(eq + 1))};
    CAWO_REQUIRE(!key.empty(), "campaign file line " + std::to_string(lineNo) +
                                   ": missing key before '='");
    setCampaignKey(spec, key, value);
  }
  return spec;
}

std::string canonicalCampaignSpecJson(const CampaignSpec& spec) {
  std::ostringstream out;
  JsonWriter w(out, /*indent=*/0);
  w.beginObject();
  w.key("name").value(spec.name);
  w.key("families");
  w.beginArray();
  for (const WorkflowFamily f : spec.families) w.value(familyName(f));
  w.endArray();
  w.key("tasks");
  w.beginArray();
  for (const int t : spec.tasks) w.value(t);
  w.endArray();
  w.key("bacass-tasks").value(spec.bacassTasks);
  w.key("nodes-per-type");
  w.beginArray();
  for (const int n : spec.nodesPerType) w.value(n);
  w.endArray();
  w.key("scenarios");
  w.beginArray();
  for (const std::string& s : spec.scenarios) w.value(s);
  w.endArray();
  w.key("deadline-factors");
  w.beginArray();
  for (const double f : spec.deadlineFactors) w.value(f);
  w.endArray();
  w.key("seeds");
  w.beginArray();
  for (const std::uint64_t s : spec.seeds) w.value(s);
  w.endArray();
  w.key("intervals").value(spec.numIntervals);
  w.key("algos").value(spec.algos);
  // The online block only appears when active, mirroring the result
  // header; "online" is written as 0/1 because the campaign-key JSON
  // surface stringifies scalars (booleans are not in its vocabulary).
  if (spec.online) {
    w.key("online").value(1);
    if (!spec.actual.empty()) w.key("actual").value(spec.actual);
    w.key("policies");
    w.beginArray();
    for (const std::string& p : spec.policies) w.value(p);
    w.endArray();
    w.key("runtime-noise").value(spec.runtimeNoise);
  }
  w.endObject();
  return out.str();
}

CampaignSpec parseCampaignFile(const std::string& path) {
  std::ifstream in(path);
  CAWO_REQUIRE(in.good(), "cannot open campaign file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parseCampaignText(buffer.str());
}

std::vector<std::string> campaignSolverNames(const CampaignSpec& spec) {
  if (spec.algos == "suite") return suiteSolverNames();
  return SolverRegistry::global().select(spec.algos);
}

std::vector<std::string> campaignCellLabels(const CampaignSpec& spec) {
  const std::vector<std::string> solverNames = campaignSolverNames(spec);
  if (!spec.online) return solverNames;
  CAWO_REQUIRE(!spec.policies.empty(), "online campaign has no policies");
  std::vector<std::string> labels;
  labels.reserve(solverNames.size() * spec.policies.size());
  for (const std::string& solver : solverNames)
    for (const std::string& policy : spec.policies)
      labels.push_back(solver + " @ " + policy);
  return labels;
}

std::vector<InstanceSpec> expandCampaign(const CampaignSpec& spec) {
  CAWO_REQUIRE(!spec.families.empty() && !spec.tasks.empty() &&
                   !spec.nodesPerType.empty() && !spec.scenarios.empty() &&
                   !spec.deadlineFactors.empty() && !spec.seeds.empty(),
               "campaign has an empty axis");
  std::vector<InstanceSpec> specs;
  specs.reserve(spec.cellCount());
  for (const WorkflowFamily family : spec.families) {
    std::vector<int> taskAxis = spec.tasks;
    if (family == WorkflowFamily::Bacass && spec.bacassTasks > 0)
      taskAxis = {spec.bacassTasks};
    for (const int tasks : taskAxis) {
      for (const int cluster : spec.nodesPerType) {
        for (const std::uint64_t seed : spec.seeds) {
          for (const std::string& scenario : spec.scenarios) {
            for (const double factor : spec.deadlineFactors) {
              InstanceSpec cell;
              cell.family = family;
              cell.targetTasks = tasks;
              cell.nodesPerType = cluster;
              cell.scenario = scenario;
              cell.deadlineFactor = factor;
              cell.numIntervals = spec.numIntervals;
              cell.seed = seed;
              specs.push_back(cell);
            }
          }
        }
      }
    }
  }
  return specs;
}

} // namespace cawo
