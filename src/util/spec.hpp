#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "util/require.hpp"

/// \file spec.hpp
/// The one `name[:param,...]` spec grammar and the name → factory registry
/// shared by power-profile sources (`ProfileSourceRegistry`, which adds the
/// `+noise=A[,seed=N]` modifier on top) and rescheduling policies
/// (`ReschedulePolicyRegistry`). A param is `key=value` or a bare value;
/// which names take which params is the registered factory's business
/// (`Spec::requireKnownParams`). Grammar reference: docs/formats.md,
/// "Specs".

namespace cawo {

/// One parameter of a spec; a bare value (the CSV path in
/// `trace:grid.csv`) is stored with an empty key.
struct SpecParam {
  std::string key;
  std::string value;
};

/// A parsed `name[:param,...]` spec.
struct Spec {
  std::string name;              ///< registered name
  std::vector<SpecParam> params; ///< in spec order, values verbatim
  std::string text;              ///< the spec string, verbatim (trimmed)

  /// Parse the first `headEnd` characters of the trimmed `specText` as
  /// `name[:param,...]`; the rest is the caller's modifier (a profile
  /// spec's `+noise`). `text` and error messages keep the whole string.
  /// Throws PreconditionError on malformed input (empty spec or name,
  /// dangling ':', empty param, `key=` or `=value`, duplicate key). Does
  /// not check that the name is registered.
  static Spec parse(const std::string& specText,
                    std::size_t headEnd = std::string::npos);

  /// `name[:param,...]` reassembled; parsing it yields the same spec.
  std::string canonical() const;

  bool hasParam(const std::string& key) const;
  std::string param(const std::string& key,
                    const std::string& fallback) const;
  /// A finite number (NaN and ±inf are rejected), or `fallback` if absent.
  double paramDouble(const std::string& key, double fallback) const;
  std::int64_t paramInt(const std::string& key, std::int64_t fallback) const;

  /// Reject a key outside `known`, and a bare value unless `allowBare`, so
  /// a typo like "constant:lvel=0.6" fails instead of using the default.
  void requireKnownParams(std::initializer_list<const char*> known,
                          bool allowBare = false) const;
};

/// Split a comma-separated axis value (campaign `scenarios`/`policies`,
/// `--policy`) into specs. Commas also separate params *inside* a spec, so
/// fragments that contain '=' before any ':' or '+' are glued onto the
/// preceding spec: "S1,sine:period=24,amp=0.5,duck" → {"S1",
/// "sine:period=24,amp=0.5", "duck"}. Registered names never contain '='.
std::vector<std::string> splitSpecList(const std::string& value);

/// Listing metadata of one registered name.
struct SpecInfo {
  std::string name;        ///< registered name
  std::string syntax;      ///< spec syntax, e.g. "periodic:every=K"
  std::string description; ///< one-line human description
};

/// Name → factory registry over the names of one spec axis, in
/// registration (canonical, listing) order.
template <class Factory>
class SpecRegistry {
public:
  /// `kind` names the axis in messages ("profile source"); `note` is
  /// appended to `syntaxSummary`.
  explicit SpecRegistry(std::string kind, std::string note = "")
      : kind_(std::move(kind)), note_(std::move(note)) {}
  SpecRegistry(const SpecRegistry&) = delete;
  SpecRegistry& operator=(const SpecRegistry&) = delete;

  /// Register a name. Throws PreconditionError on a duplicate or malformed
  /// name or a null factory.
  void registerFactory(SpecInfo info, Factory factory) {
    CAWO_REQUIRE(!info.name.empty() &&
                     info.name.find_first_of(":,+=") == std::string::npos,
                 kind_ + " name \"" + info.name +
                     "\" must be non-empty and free of spec syntax (:,+=)");
    CAWO_REQUIRE(find(info.name) == nullptr,
                 "duplicate " + kind_ + " \"" + info.name + "\"");
    CAWO_REQUIRE(factory != nullptr,
                 kind_ + " \"" + info.name + "\" has no factory");
    entries_.push_back({std::move(info), std::move(factory)});
  }

  bool contains(const std::string& name) const {
    return find(name) != nullptr;
  }

  /// All registered names, in registration (canonical) order.
  std::vector<std::string> names() const {
    std::vector<std::string> out;
    for (const Entry& e : entries_) out.push_back(e.info.name);
    return out;
  }

  /// Listing metadata for a registered name; throws for unknown names.
  const SpecInfo& info(const std::string& name) const {
    const Entry* e = find(name);
    CAWO_REQUIRE(e != nullptr, "unknown " + kind_ + " \"" + name +
                                   "\" — registered: " + syntaxSummary());
    return e->info;
  }

  /// One-line enumeration of the registered syntax, for error messages.
  std::string syntaxSummary() const {
    std::string out;
    for (const Entry& e : entries_)
      out += (out.empty() ? "" : ", ") + e.info.syntax;
    return out + note_;
  }

  /// The factory of `spec`'s name; throws listing every registered
  /// syntax when the name is unknown.
  const Factory& factory(const Spec& spec) const {
    const Entry* e = find(spec.name);
    CAWO_REQUIRE(e != nullptr, "unknown " + kind_ + " \"" + spec.name +
                                   "\" in spec \"" + spec.text +
                                   "\" — registered: " + syntaxSummary());
    return e->factory;
  }

private:
  struct Entry {
    SpecInfo info;
    Factory factory;
  };

  const Entry* find(const std::string& name) const {
    for (const Entry& e : entries_)
      if (e.info.name == name) return &e;
    return nullptr;
  }

  std::string kind_;
  std::string note_;
  std::vector<Entry> entries_;
};

} // namespace cawo
