#include <memory>

#include "core/asap.hpp"
#include "core/cawosched.hpp"
#include "core/solve_context.hpp"
#include "heft/green_heft.hpp"
#include "solver/builtins.hpp"
#include "util/require.hpp"

/// \file solvers_heft.cpp
/// Solver adapter over the two-pass GreenHEFT pipeline (Section 7 future
/// work): a carbon-aware HEFT mapping pass followed by a CaWoSched
/// scheduling pass on the re-mapped enhanced graph. Because the mapping
/// changes, the result carries its own enhanced graph (and a profile
/// extended to the new ASAP horizon when necessary).
///
/// Selectable as "greenheft" or "greenheft[alpha]" (e.g. "greenheft[0.25]");
/// a bracket parameter fixes the alpha and wins over the options bag.
/// Options (all optional):
///   alpha       double  makespan/carbon trade-off, 1.0 = plain HEFT (0.5)
///   variant     string  second-pass CaWoSched variant ("pressWR-LS")
///   link-seed   int     RNG seed for the link-processor powers
///   block-size, ls-radius, ls-restarts, ls-seed
///               int     second-pass CaWoSched tuning, read as by the
///                       CaWoSched adapters (solvers_core.cpp)

namespace cawo {

namespace {

class GreenHeftSolver final : public Solver {
public:
  GreenHeftSolver(std::string name, double alpha, bool alphaFixedByName)
      : name_(std::move(name)),
        alpha_(alpha),
        alphaFixedByName_(alphaFixedByName) {}

  SolverInfo info() const override {
    SolverInfo meta;
    meta.name = name_;
    meta.family = "heft";
    meta.description =
        "two-pass pipeline: carbon-aware HEFT mapping, then a CaWoSched "
        "scheduling pass on the re-mapped graph";
    meta.remapsGraph = true;
    meta.needsWorkflow = true;
    return meta;
  }

protected:
  RawResult doSolve(const SolveRequest& request) const override {
    const SolverOptions& options = request.options;

    GreenHeftOptions gh;
    // A bracket parameter is part of the solver's identity — the name
    // "greenheft[0.25]" must run with alpha 0.25 regardless of the bag.
    gh.alpha = alphaFixedByName_ ? alpha_
                                 : options.getDouble("alpha", alpha_);
    CAWO_REQUIRE(gh.alpha >= 0.0 && gh.alpha <= 1.0,
                 "greenheft alpha must lie in [0, 1]");
    const HeftResult mapped =
        runGreenHeft(*request.graph, *request.platform, *request.profile, gh);

    LinkPowerOptions linkPower;
    linkPower.seed = static_cast<std::uint64_t>(options.getInt(
        "link-seed", static_cast<std::int64_t>(linkPower.seed)));
    auto gc = std::make_shared<EnhancedGraph>(
        EnhancedGraph::build(*request.graph, *request.platform,
                             mapped.mapping, linkPower, &mapped.startTimes));

    // The re-mapped graph may not fit the requested deadline; fall back to
    // its own ASAP makespan and extend the profile's horizon with the last
    // interval's budget so both pipelines are costed on comparable bands.
    const Time asapD = asapMakespan(*gc);
    const Time deadline = std::max(request.deadline, asapD);
    auto profile = std::make_shared<PowerProfile>(*request.profile);
    const Power tailGreen = profile->numIntervals() == 0
                                ? 0
                                : profile->intervals().back().green;
    profile->extendTo(deadline, tailGreen);

    const VariantSpec variant =
        VariantSpec::parse(options.getString("variant", "pressWR-LS"));
    const CaWoParams params = tuningFromOptions(options);

    // The request's context (if any) describes the *original* mapping, so
    // it cannot be reused here; the second pass gets its own context over
    // the re-mapped graph and reports the same phase-split stats as the
    // plain CaWoSched adapters.
    const SolveContext remappedCtx(*gc, *profile, deadline);
    VariantRunStats run;
    RawResult raw;
    raw.schedule = runVariant(remappedCtx, variant, params, &run);
    fillPhaseStats(run, raw.stats);
    raw.stats["mapping-makespan"] = mapped.makespan;
    raw.stats["asap-makespan"] = asapD;
    raw.remappedGc = std::move(gc);
    raw.extendedProfile = std::move(profile);
    raw.effectiveDeadline = deadline;
    return raw;
  }

private:
  std::string name_;
  double alpha_;
  bool alphaFixedByName_;
};

} // namespace

void registerHeftSolvers(SolverRegistry& registry) {
  registry.registerFactory(
      "greenheft", [](const std::string& requested) -> SolverPtr {
        const auto [base, param] = splitBracketParam(requested);
        CAWO_REQUIRE(base == "greenheft",
                     "greenheft factory invoked for '" + requested + "'");
        double alpha = 0.5;
        if (!param.empty()) {
          try {
            alpha = std::stod(param);
          } catch (const std::exception&) {
            CAWO_REQUIRE(false, "cannot parse greenheft alpha from '" +
                                    requested + "'");
          }
        }
        return std::make_unique<GreenHeftSolver>(requested, alpha,
                                                 !param.empty());
      });
}

} // namespace cawo
