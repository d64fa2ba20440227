#include <cmath>
#include <limits>
#include <optional>

#include "core/asap.hpp"
#include "core/cawosched.hpp"
#include "core/solve_context.hpp"
#include "solver/builtins.hpp"
#include "util/require.hpp"

/// \file solvers_core.cpp
/// Solver adapters over the core algorithm family: the carbon-unaware
/// ASAP baseline and the 16 CaWoSched heuristics.
///
/// Both adapters consume `SolveRequest::context` when the caller provides
/// one (the campaign runner, serve and the online engine do), so the
/// initial windows, score orders and refined interval sets are computed
/// once per instance; a private context is built otherwise. A residual
/// request runs the same greedy with the request's `ResidualProblem`.
/// CaWoSched runs additionally report the greedy/local-search phase split
/// (and the local-search statistics) through the solver stats map:
///   greedy-us        greedy-phase wall time, microseconds
///   ls-us            local-search wall time, microseconds (LS variants)
///   ls-rounds        local-search rounds (including the final gainless one)
///   ls-moves         improving moves applied
///   ls-probes        candidate targets scored (clean tasks are skipped)
///   ls-initial-cost  carbon cost entering local search
///   ls-final-cost    carbon cost leaving local search
///
/// CaWoSched options (all optional):
///   block-size   int   refinement block size k (paper: 3; 1..INT_MAX)
///   ls-radius    int   local-search radius µ   (paper: 10; ≥ 0)
///   threads      int   local-search restart threads (0 = hardware, ≥ 0;
///                      never changes the schedule — see DESIGN.md,
///                      "Parallel solve core")
///   ls-restarts  int   local-search best-of-N restarts (≥ 1; 1 = the
///                      paper's plain -LS pass)
///   ls-seed      int   base seed for restart perturbation streams

namespace cawo {

CaWoParams tuningFromOptions(const SolverOptions& options) {
  CaWoParams params;
  const std::int64_t blockSize = options.getInt("block-size", params.blockSize);
  CAWO_REQUIRE(blockSize >= 1 && blockSize <= std::numeric_limits<int>::max(),
               "CaWoSched option \"block-size\" must be in [1, INT_MAX]");
  params.blockSize = static_cast<int>(blockSize);
  params.lsRadius = options.getInt("ls-radius", params.lsRadius);
  CAWO_REQUIRE(params.lsRadius >= 0,
               "CaWoSched option \"ls-radius\" must be >= 0");
  return params;
}

namespace {

CaWoParams paramsFromOptions(const SolverOptions& options) {
  CaWoParams params = tuningFromOptions(options);
  const std::int64_t threads = options.getInt("threads", params.threads);
  CAWO_REQUIRE(threads >= 0,
               "CaWoSched option \"threads\" must be >= 0 (0 = hardware)");
  params.threads = static_cast<unsigned>(threads);
  const std::int64_t restarts =
      options.getInt("ls-restarts",
                     static_cast<std::int64_t>(params.lsRestarts));
  CAWO_REQUIRE(restarts >= 1, "CaWoSched option \"ls-restarts\" must be >= 1");
  params.lsRestarts = static_cast<std::size_t>(restarts);
  params.lsSeed = static_cast<std::uint64_t>(options.getInt(
      "ls-seed", static_cast<std::int64_t>(params.lsSeed)));
  return params;
}

class AsapSolver final : public Solver {
public:
  SolverInfo info() const override {
    SolverInfo meta;
    meta.name = "ASAP";
    meta.family = "baseline";
    meta.description =
        "carbon-unaware baseline: every node starts at its earliest "
        "possible start time";
    return meta;
  }

protected:
  RawResult doSolve(const SolveRequest& request) const override {
    RawResult raw;
    raw.schedule = request.context
                       ? scheduleAsap(*request.gc, request.context->initialEst())
                       : scheduleAsap(*request.gc);
    return raw;
  }
};

class CaWoSchedSolver final : public Solver {
public:
  explicit CaWoSchedSolver(const VariantSpec& spec) : spec_(spec) {}

  SolverInfo info() const override {
    SolverInfo meta;
    meta.name = spec_.name();
    meta.family = "cawosched";
    meta.description =
        std::string("CaWoSched heuristic: ") +
        (spec_.base == BaseScore::Slack ? "slack" : "pressure") + " score" +
        (spec_.weighted ? ", power-weighted" : "") +
        (spec_.refined ? ", refined intervals" : "") +
        (spec_.localSearch ? ", + local search" : "");
    meta.supportsResidual = true;
    return meta;
  }

protected:
  RawResult doSolve(const SolveRequest& request) const override {
    const CaWoParams params = paramsFromOptions(request.options);
    std::optional<SolveContext> local;
    const SolveContext* ctx = request.context;
    if (ctx == nullptr)
      ctx = &local.emplace(*request.gc, *request.profile, request.deadline);

    if (request.residual != nullptr) {
      // Mid-execution re-solve: the greedy over the movable remainder. The
      // -LS pass is skipped — its moves are not pin-aware, and re-solves
      // must stay cheap enough to run at every event (see DESIGN.md,
      // "Online execution engine").
      RawResult raw;
      raw.schedule = scheduleGreedy(
          *ctx, spec_.greedyOptions(params.blockSize), request.residual);
      return raw;
    }

    VariantRunStats run;
    RawResult raw;
    raw.schedule = runVariant(*ctx, spec_, params, &run);
    fillPhaseStats(run, raw.stats);
    return raw;
  }

private:
  VariantSpec spec_;
};

} // namespace

void fillPhaseStats(const VariantRunStats& run,
                    std::map<std::string, std::int64_t>& stats) {
  stats["greedy-us"] =
      static_cast<std::int64_t>(std::llround(run.greedyMs * 1000.0));
  if (!run.lsRan) return;
  stats["ls-us"] = static_cast<std::int64_t>(std::llround(run.lsMs * 1000.0));
  stats["ls-rounds"] = static_cast<std::int64_t>(run.ls.rounds);
  stats["ls-moves"] = static_cast<std::int64_t>(run.ls.movesApplied);
  stats["ls-probes"] = static_cast<std::int64_t>(run.ls.probes);
  stats["ls-initial-cost"] = static_cast<std::int64_t>(run.ls.initialCost);
  stats["ls-final-cost"] = static_cast<std::int64_t>(run.ls.finalCost);
  // Only multi-start runs grow extra keys, so default-knob records (and
  // the golden files pinned on them) are byte-identical to before.
  if (run.ls.restartsRun > 1) {
    stats["ls-restarts"] = static_cast<std::int64_t>(run.ls.restartsRun);
    stats["ls-best-restart"] = static_cast<std::int64_t>(run.ls.bestRestart);
  }
}

void registerCoreSolvers(SolverRegistry& registry) {
  registry.registerFactory(
      "ASAP", [](const std::string&) -> SolverPtr {
        return std::make_unique<AsapSolver>();
      });
  for (const VariantSpec& variant : allVariants()) {
    registry.registerFactory(
        variant.name(), [variant](const std::string&) -> SolverPtr {
          return std::make_unique<CaWoSchedSolver>(variant);
        });
  }
}

} // namespace cawo
