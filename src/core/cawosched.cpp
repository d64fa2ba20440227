#include "core/cawosched.hpp"

#include "core/solve_context.hpp"
#include "obs/trace.hpp"
#include "util/require.hpp"
#include "util/timer.hpp"

namespace cawo {

std::string VariantSpec::name() const {
  std::string s = (base == BaseScore::Slack) ? "slack" : "press";
  if (weighted) s += "W";
  if (refined) s += "R";
  if (localSearch) s += "-LS";
  return s;
}

VariantSpec VariantSpec::parse(const std::string& name) {
  for (const VariantSpec& v : allVariants())
    if (v.name() == name) return v;
  throw PreconditionError("unknown CaWoSched variant: " + name);
}

std::vector<VariantSpec> allVariants() {
  std::vector<VariantSpec> out;
  for (const bool ls : {false, true}) {
    for (const BaseScore base : {BaseScore::Slack, BaseScore::Pressure}) {
      for (const bool refined : {false, true}) {
        for (const bool weighted : {false, true}) {
          // Order within a base: plain, W, R, WR (paper naming order).
          out.push_back(VariantSpec{base, weighted, refined, ls});
        }
      }
    }
  }
  return out;
}

Schedule runVariant(const EnhancedGraph& gc, const PowerProfile& profile,
                    Time deadline, const VariantSpec& spec,
                    const CaWoParams& params) {
  const SolveContext ctx(gc, profile, deadline);
  return runVariant(ctx, spec, params);
}

Schedule runVariant(const SolveContext& ctx, const VariantSpec& spec,
                    const CaWoParams& params, VariantRunStats* stats) {
  obs::TraceScope span("solve.variant");
  if (span.recording()) span.arg("variant", spec.name());

  WallTimer timer;
  Schedule s = scheduleGreedy(ctx, spec.greedyOptions(params.blockSize));
  if (stats) stats->greedyMs = timer.elapsedMs();

  if (spec.localSearch) {
    timer.reset();
    const LocalSearchStats ls =
        localSearch(ctx.gc(), ctx.profile(), ctx.deadline(), s,
                    {params.lsRadius, params.lsRestarts, params.lsSeed});
    if (stats) {
      stats->lsMs = timer.elapsedMs();
      stats->lsRan = true;
      stats->ls = ls;
    }
  }
  return s;
}

} // namespace cawo
