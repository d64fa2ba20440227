#include "serve/listings.hpp"

#include <sstream>

#include "online/policy.hpp"
#include "profile/profile_source.hpp"
#include "sim/table.hpp"
#include "solver/registry.hpp"
#include "util/require.hpp"

namespace cawo {

Listing algoListing() {
  const SolverRegistry& registry = SolverRegistry::global();
  Listing listing;
  listing.names = registry.names();
  std::ostringstream out;
  TextTable table({"name", "family", "exact", "description"});
  for (const std::string& name : listing.names) {
    const SolverInfo meta = registry.create(name)->info();
    table.addRow({meta.name, meta.family, meta.exact ? "yes" : "no",
                  meta.description});
  }
  table.print(out);
  out << "\nselect with --algo=<name>, a glob (\"press*\"), a comma "
         "list, or \"all\";\nparameterised forms like "
         "\"greenheft[0.25]\" set the alpha inline.\n";
  listing.text = out.str();
  return listing;
}

namespace {

/// The listing of one spec registry: a name/syntax/description table and
/// a usage hint.
template <class Factory>
Listing specListing(const SpecRegistry<Factory>& registry,
                    const std::string& column, const std::string& hint) {
  Listing listing;
  listing.names = registry.names();
  std::ostringstream out;
  TextTable table({column, "spec syntax", "description"});
  for (const std::string& name : listing.names) {
    const SpecInfo& meta = registry.info(name);
    table.addRow({meta.name, meta.syntax, meta.description});
  }
  table.print(out);
  out << hint;
  listing.text = out.str();
  return listing;
}

} // namespace

Listing scenarioListing() {
  return specListing(ProfileSourceRegistry::global(), "source",
                     "\npass any spec via --scenario (single run) or "
                     "--scenarios (campaign axis);\nappend "
                     "\"+noise=A[,seed=N]\" for multiplicative forecast "
                     "error. Grammar: docs/formats.md.\n");
}

Listing policyListing() {
  return specListing(ReschedulePolicyRegistry::global(), "policy",
                     "\npass one or more specs via --policy "
                     "(e.g. --policy=static,periodic:every=4,"
                     "reactive:threshold=0.15).\n");
}

Listing listingFor(const std::string& what) {
  if (what == "algos") return algoListing();
  if (what == "scenarios") return scenarioListing();
  if (what == "policies") return policyListing();
  CAWO_REQUIRE(false, "unknown listing \"" + what +
                          "\" (valid: algos, scenarios, policies)");
  return {}; // unreachable
}

} // namespace cawo
