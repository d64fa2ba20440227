// A solar data center meets the real grid: the scheduler plans an eager
// workflow against the S1 solar forecast, but execution is billed against
// the measured grid trace shipped in examples/grid_trace.csv. The example
// replays the same plan under the `static` policy (never react) and the
// `reactive` policy (re-solve when billed carbon drifts from the plan) and
// compares their regret against the clairvoyant solve that knew the trace
// all along.
//
//   $ ./online_replay [--tasks=80] [--deadline-factor=2.0] [--seed=21]
//       [--trace=examples/grid_trace.csv] [--threshold=0.1]

#include <iostream>

#include "exp/json.hpp"
#include "online/replay.hpp"
#include "sim/instance.hpp"
#include "sim/table.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace cawo;
  try {
    const CliArgs args(
        argc, argv,
        {"tasks", "deadline-factor", "seed", "trace", "threshold"},
        "online_replay");

    InstanceSpec spec;
    spec.family = WorkflowFamily::Eager;
    spec.targetTasks = static_cast<int>(args.getInt("tasks", 80));
    spec.nodesPerType = 2;
    spec.scenario = "S1"; // the forecast: a clean solar day
    spec.deadlineFactor = args.getDouble("deadline-factor", 2.0);
    spec.numIntervals = 24;
    spec.seed = static_cast<std::uint64_t>(args.getInt("seed", 21));
    const Instance inst = buildInstance(spec);

    // The actual: the measured grid trace, tiled over the horizon and
    // normalised onto this platform's power band.
    const std::string actual =
        "trace:" + args.getString("trace", "examples/grid_trace.csv") +
        ",repeat=1,normalize=1";

    std::cout << "eager workflow: " << inst.graph.numTasks() << " tasks ("
              << inst.gc.numNodes() << " enhanced nodes), deadline "
              << inst.deadline << "\nforecast: S1 solar day — actual: "
              << actual << "\n\n";

    OnlineOptions opts;
    opts.solver = "pressWR-LS";
    // Round-trip-exact threshold text: a fixed-precision rendering would
    // silently run a different threshold than the one requested.
    const double threshold = args.getDouble("threshold", 0.1);
    const std::vector<std::string> policies{
        "static", "reactive:threshold=" + jsonNumber(threshold)};

    TextTable table({"policy", "billed cost", "clairvoyant", "regret",
                     "re-solves", "deadline"});
    for (const OnlineResult& r : replayOnline(inst, actual, opts, policies)) {
      if (!r.ran) {
        std::cout << "replay failed (" << r.policy << "): " << r.error
                  << "\n";
        return 1;
      }
      table.addRow({r.policy, std::to_string(r.actualCost),
                    r.clairvoyantFeasible ? std::to_string(r.clairvoyantCost)
                                          : "-",
                    r.clairvoyantFeasible ? std::to_string(r.regret) : "-",
                    std::to_string(r.resolveCount) + " (" +
                        std::to_string(r.resolveAccepted) + " accepted)",
                    r.deadlineMet ? "met" : "MISSED"});
    }
    table.print(std::cout);
    std::cout << "\nThe static policy ships the solar-day plan into a grid "
                 "that looks nothing like\nit; the reactive policy re-plans "
                 "the unstarted remainder as the drift shows up\nin the "
                 "bill, closing part of the gap to the clairvoyant "
                 "schedule.\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
