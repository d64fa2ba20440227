// e2ebench — the repository's end-to-end benchmark (see README.md here).
//
//   e2ebench --workload <campaign-ls|campaign-greedy-store|serve-mixed>
//            --seed <n> --seconds <s> --trace <0|1> [--smoke]
//
// Prints a human report on stderr and, as the last line of stdout, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. Exits 1 when an output check failed, 2 on bad usage.

#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "exp/json.hpp"

namespace {

void usage(const char* why) {
  std::cerr << "e2ebench: " << why
            << "\nusage: e2ebench --workload <campaign-ls|"
               "campaign-greedy-store|serve-mixed> --seed <n> --seconds <s> "
               "--trace <0|1> [--smoke]\n";
  std::exit(2);
}

e2e::RunConfig parseArgs(int argc, char** argv) {
  e2e::RunConfig config;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      config.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        config.workload = value;
        haveWorkload = true;
      } else if (arg == "--seed") {
        config.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value);
        if (!(config.seconds > 0)) usage("--seconds must be positive");
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        config.trace = value == "1";
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (!haveWorkload) usage("--workload is required");
  return config;
}

void printResult(const e2e::RunReport& report) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& m : report.metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + cawo::jsonNumber(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

} // namespace

int main(int argc, char** argv) {
  e2e::RunConfig config = parseArgs(argc, argv);
  config.workDir =
      ".bench_build/work-" + std::to_string(static_cast<long>(::getpid()));

  e2e::RunReport report;
  try {
    std::filesystem::remove_all(config.workDir);
    std::filesystem::create_directories(config.workDir);
    if (config.workload == "campaign-ls") {
      report = e2e::runCampaignLs(config);
    } else if (config.workload == "campaign-greedy-store") {
      report = e2e::runCampaignGreedyStore(config);
    } else if (config.workload == "serve-mixed") {
      report = e2e::runServeMixed(config);
    } else {
      std::filesystem::remove_all(config.workDir);
      usage(("unknown workload " + config.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::filesystem::remove_all(config.workDir);
    std::cerr << "e2ebench: " << config.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  std::filesystem::remove_all(config.workDir);

  for (const auto& m : report.metrics)
    if (!std::isfinite(m.value)) report.fail("metric " + m.name + " is not finite");
  if (report.attempted < 1) report.fail("no operation was attempted");
  if (report.failed > 0)
    report.fail(std::to_string(report.failed) + " operations failed");
  for (const std::string& problem : report.problems)
    std::cerr << "CHECK FAILED: " << problem << "\n";
  printResult(report);
  return report.correct ? 0 : 1;
}
