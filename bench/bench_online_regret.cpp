// bench_online_regret — online-vs-clairvoyant regret as a function of
// forecast error, per rescheduling policy.
//
// For every noise amplitude A in --noises and every policy in --policies,
// the instance's forecast spec gains a "+noise=A" modifier (A = 0 keeps
// actual == forecast), the online engine replays the plan against the
// noisy actual, and the regret vs the clairvoyant solve (same solver,
// planned directly against actuals) is recorded. One row per policy, one
// column per amplitude; --out writes one JSON record per
// (noise, policy, seed) cell including the per-re-solve wall times.
//
//   $ ./bench_online_regret [--tasks=60] [--family=atacseq]
//       [--nodes-per-type=2] [--intervals=16] [--deadline-factor=1.5]
//       [--seeds=1] [--seed=1] [--forecast=S1] [--algo=pressWR-LS]
//       [--noises=0,0.1,0.2,0.4]
//       [--policies=static,periodic:every=4,reactive:threshold=0.15]
//       [--runtime-noise=0] [--out=BENCH_online.json]

#include <cmath>
#include <fstream>
#include <iostream>
#include <vector>

#include "exp/json.hpp"
#include "online/policy.hpp"
#include "online/replay.hpp"
#include "online/result_json.hpp"
#include "profile/profile_source.hpp"
#include "sim/instance.hpp"
#include "sim/stats.hpp"
#include "sim/table.hpp"
#include "util/cli.hpp"
#include "util/require.hpp"
#include "util/strings.hpp"

namespace {

using namespace cawo;

struct BenchCell {
  double noise = 0.0;
  std::string policy;
  std::uint64_t seed = 0;
  OnlineResult result;
};

// Round-trip-exact amplitude text: the spec (and the table/JSON labels)
// must name exactly the amplitude that was swept — a fixed-precision
// rendering would silently measure a different point than it labels.
std::string formatNoise(double a) { return jsonNumber(a); }

} // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args(argc, argv,
                       {"tasks", "family", "nodes-per-type", "intervals",
                        "deadline-factor", "seeds", "seed", "forecast",
                        "algo", "noises", "policies", "runtime-noise",
                        "out"},
                       "bench_online_regret");

    const std::string forecastBase = args.getString("forecast", "S1");
    const std::string algo = args.getString("algo", "pressWR-LS");
    const int seedCount = static_cast<int>(args.getInt("seeds", 1));
    const auto baseSeed = static_cast<std::uint64_t>(args.getInt("seed", 1));

    std::vector<double> noises;
    for (const std::string& token :
         split(args.getString("noises", "0,0.1,0.2,0.4"), ','))
      noises.push_back(
          parseDoubleStrict("--noises", std::string{trim(token)}));
    const std::vector<std::string> policies = splitSpecList(
        args.getString("policies",
                       "static,periodic:every=4,reactive:threshold=0.15"));
    CAWO_REQUIRE(!noises.empty() && !policies.empty(),
                 "--noises and --policies must be non-empty");
    for (const std::string& policy : policies)
      (void)ReschedulePolicyRegistry::global().resolve(policy);

    OnlineOptions opts;
    opts.solver = algo;
    opts.runtimeNoise = args.getDouble("runtime-noise", 0.0);
    opts.solverOptions.setInt("block-size", 3);
    opts.solverOptions.setInt("ls-radius", 10);

    std::cout << "online regret sweep: " << noises.size() << " amplitudes × "
              << policies.size() << " policies × " << seedCount
              << " seeds (" << forecastBase << ", " << algo << ")\n\n";

    std::vector<BenchCell> cells;
    for (const double noise : noises) {
      for (int s = 0; s < seedCount; ++s) {
        const std::uint64_t seed =
            baseSeed + static_cast<std::uint64_t>(s) * 1000;
        InstanceSpec spec;
        spec.family = familyFromName(args.getString("family", "atacseq"));
        spec.targetTasks = static_cast<int>(args.getInt("tasks", 60));
        spec.nodesPerType =
            static_cast<int>(args.getInt("nodes-per-type", 2));
        spec.numIntervals = static_cast<int>(args.getInt("intervals", 16));
        spec.deadlineFactor = args.getDouble("deadline-factor", 1.5);
        spec.seed = seed;
        // The swept axis: the forecast spec's +noise modifier *is* the
        // forecast error (see docs/formats.md, "Forecast vs actual").
        spec.scenario =
            noise > 0.0 ? forecastBase + "+noise=" + formatNoise(noise) +
                              ",seed=" + std::to_string(seed ^ 0xF0CA57ULL)
                        : forecastBase;
        const Instance inst = buildInstance(spec);
        opts.runtimeSeed = seed ^ 0x0417CEB5ULL;
        // One shared plan + clairvoyant solve per (noise, seed) row.
        std::vector<OnlineResult> results =
            replayOnline(inst, "", opts, policies);
        for (std::size_t p = 0; p < policies.size(); ++p) {
          BenchCell cell;
          cell.noise = noise;
          cell.policy = policies[p];
          cell.seed = seed;
          cell.result = std::move(results[p]);
          CAWO_REQUIRE(cell.result.ran,
                       "replay failed (" + policies[p] + ", A=" +
                           formatNoise(noise) + "): " + cell.result.error);
          cells.push_back(std::move(cell));
        }
      }
    }

    // Mean regret-ratio table: policies × amplitudes.
    std::vector<std::string> headers{"policy \\ noise"};
    for (const double a : noises) headers.push_back("A=" + formatNoise(a));
    TextTable ratios(headers);
    TextTable resolves(headers);
    for (const std::string& policy : policies) {
      std::vector<std::string> ratioRow{policy};
      std::vector<std::string> resolveRow{policy};
      for (const double a : noises) {
        std::vector<double> rs;
        double wallMs = 0.0;
        std::int64_t count = 0, cellCount = 0;
        for (const BenchCell& cell : cells) {
          if (cell.policy != policy || cell.noise != a) continue;
          ++cellCount;
          count += static_cast<std::int64_t>(cell.result.resolveCount);
          wallMs += cell.result.resolveWallMs;
          if (cell.result.clairvoyantFeasible &&
              !std::isnan(cell.result.regretRatio))
            rs.push_back(cell.result.regretRatio);
        }
        ratioRow.push_back(rs.empty() ? "-" : formatFixed(meanOf(rs), 3));
        resolveRow.push_back(
            std::to_string(count) + " (" +
            formatFixed(cellCount > 0 ? wallMs / static_cast<double>(cellCount)
                                      : 0.0,
                        2) +
            " ms)");
      }
      ratios.addRow(ratioRow);
      resolves.addRow(resolveRow);
    }
    printHeading(std::cout, "mean regret ratio (actual / clairvoyant)");
    ratios.print(std::cout);
    printHeading(std::cout, "re-solves per cell (mean wall ms)");
    resolves.print(std::cout);

    if (args.has("out")) {
      const std::string out = args.getString("out", "BENCH_online.json");
      std::ofstream file(out);
      CAWO_REQUIRE(file.good(), "cannot open result file: " + out);
      JsonWriter w(file);
      w.beginObject();
      w.key("schema").value("cawosched-bench-online-v1");
      w.key("forecast").value(forecastBase);
      w.key("solver").value(algo);
      w.key("runtime_noise").value(opts.runtimeNoise);
      w.key("records");
      w.beginArray();
      for (const BenchCell& cell : cells) {
        const OnlineResult& r = cell.result;
        w.compactNext();
        w.beginObject();
        w.key("noise").value(cell.noise);
        w.key("policy").value(cell.policy);
        w.key("seed").value(static_cast<std::uint64_t>(cell.seed));
        writeOnlineResultFields(w, r);
        w.endObject();
      }
      w.endArray();
      w.endObject();
      file << '\n';
      CAWO_REQUIRE(file.good(), "failed writing result file: " + out);
      std::cout << "\n" << cells.size() << " records written to " << out
                << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
