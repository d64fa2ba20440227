#include "util/spec.hpp"

#include <cmath>

#include "util/strings.hpp"

namespace cawo {

Spec Spec::parse(const std::string& specText, std::size_t headEnd) {
  const std::string text{trim(specText)};
  CAWO_REQUIRE(!text.empty(), "empty spec");
  Spec spec;
  spec.text = text;
  const std::string where = "spec \"" + text + "\"";

  const std::string head{trim(text.substr(0, headEnd))};
  const std::size_t colon = head.find(':');
  spec.name = std::string{trim(head.substr(0, colon))};
  CAWO_REQUIRE(!spec.name.empty(), where + ": missing name");
  if (colon == std::string::npos) return spec;

  const std::string paramText = head.substr(colon + 1);
  CAWO_REQUIRE(!trim(paramText).empty(),
               where + ": dangling ':' without parameters");
  for (const std::string& part : split(paramText, ',')) {
    const std::string item{trim(part)};
    CAWO_REQUIRE(!item.empty(), where + ": empty parameter");
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      spec.params.push_back({"", item}); // bare value
      continue;
    }
    const std::string key{trim(item.substr(0, eq))};
    const std::string value{trim(item.substr(eq + 1))};
    CAWO_REQUIRE(!key.empty() && !value.empty(),
                 where + ": expected key=value, got \"" + item + "\"");
    // First-match lookup + silent duplicates would run a different
    // experiment than the one the user believes they wrote.
    CAWO_REQUIRE(!spec.hasParam(key),
                 where + ": duplicate parameter \"" + key + "\"");
    spec.params.push_back({key, value});
  }
  return spec;
}

std::string Spec::canonical() const {
  std::string out = name;
  for (std::size_t i = 0; i < params.size(); ++i) {
    out += (i == 0 ? ":" : ",");
    out += params[i].key.empty() ? params[i].value
                                 : params[i].key + "=" + params[i].value;
  }
  return out;
}

bool Spec::hasParam(const std::string& key) const {
  for (const SpecParam& p : params)
    if (p.key == key) return true;
  return false;
}

std::string Spec::param(const std::string& key,
                        const std::string& fallback) const {
  for (const SpecParam& p : params)
    if (p.key == key) return p.value;
  return fallback;
}

double Spec::paramDouble(const std::string& key, double fallback) const {
  if (!hasParam(key)) return fallback;
  const std::string what =
      "spec \"" + text + "\": parameter \"" + key + "\"";
  const std::string value = param(key, "");
  const double v = parseDoubleStrict(what, value);
  CAWO_REQUIRE(std::isfinite(v),
               what + ": \"" + value + "\" is not a finite number");
  return v;
}

std::int64_t Spec::paramInt(const std::string& key,
                            std::int64_t fallback) const {
  if (!hasParam(key)) return fallback;
  return parseInt64Strict("spec \"" + text + "\": parameter \"" + key + "\"",
                          param(key, ""));
}

void Spec::requireKnownParams(std::initializer_list<const char*> known,
                              bool allowBare) const {
  for (const SpecParam& p : params) {
    if (p.key.empty()) {
      CAWO_REQUIRE(allowBare, "spec \"" + text +
                                  "\": expected key=value, got \"" +
                                  p.value + "\"");
      continue;
    }
    std::string list;
    bool found = false;
    for (const char* k : known) {
      list += (list.empty() ? "" : ", ") + std::string(k);
      found = found || p.key == k;
    }
    CAWO_REQUIRE(found, "spec \"" + text + "\": unknown parameter \"" +
                            p.key + "\" for \"" + name + "\" (known: " +
                            (list.empty() ? "none" : list) + ")");
  }
}

std::vector<std::string> splitSpecList(const std::string& value) {
  // A fragment continues the previous spec when its first '=' comes before
  // any ':' or '+': "amp=0.5" and "seed=2" are parameters, while
  // "sine:period=24" and "duck+noise=0.2" start a new spec.
  const auto isContinuation = [](const std::string& item) {
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) return false;
    const std::size_t colon = item.find(':');
    const std::size_t plus = item.find('+');
    return (colon == std::string::npos || eq < colon) &&
           (plus == std::string::npos || eq < plus);
  };
  std::vector<std::string> items;
  for (const std::string& part : split(value, ',')) {
    const std::string item{trim(part)};
    if (item.empty()) continue;
    if (isContinuation(item)) {
      CAWO_REQUIRE(!items.empty(),
                   "scenario list starts with the parameter fragment \"" +
                       item + "\" — parameters belong after a source name");
      items.back() += "," + item;
    } else {
      items.push_back(item);
    }
  }
  return items;
}

} // namespace cawo
