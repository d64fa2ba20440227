#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

/// \file bench.hpp
/// Shared pieces of the end-to-end benchmark (see README.md in this
/// directory): the run configuration, the report every workload fills,
/// small statistics helpers, and the benchmark-side layer clock the traced
/// runs use to attribute time to the library's modules.

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// One benchmark invocation, as parsed from the command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0; ///< measuring budget of the run
  bool trace = false;    ///< per-layer run instead of end-to-end
  bool smoke = false;    ///< tiny inputs, for the self-test only
  std::string workDir;   ///< work directory inside the checkout
};

/// What a workload run reports: counts, correctness and named metrics in
/// emission order. Printed as the final JSON line by main.cpp.
struct RunReport {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems; ///< why `correct` is false

  void set(const std::string& name, double value, const std::string& unit);
  void fail(const std::string& why);
};

/// Nearest-rank percentile (the serve daemon's own formula); 0 when empty.
double percentile(std::vector<double> samples, double q);
double median(std::vector<double> samples);
/// Peak resident set size of this process so far, in MB.
double peakRssMb();

/// FNV-1a 64 over a stream of fields — the campaign cost digest.
class Digest {
public:
  void add(const std::string& field);
  void add(std::int64_t value) { add(std::to_string(value)); }
  std::string hex() const;

private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Benchmark-side layer clock for the traced runs. Layers form a fixed
/// tree (parent "" = top level). Each worker lane accumulates inclusive
/// milliseconds per layer without locking; a layer's self time is its
/// inclusive time minus its children's, and `unattributed` is the traced
/// wall minus the top-level layers — so children + unattributed = wall by
/// construction, and a gap in the spans shows up as a number.
class LayerClock {
public:
  explicit LayerClock(
      const std::vector<std::pair<std::string, std::string>>& tree);

  struct Lane {
    std::vector<double> ms;
    std::vector<std::int64_t> count;
    void add(int layer, double millis) {
      ms[static_cast<std::size_t>(layer)] += millis;
      ++count[static_cast<std::size_t>(layer)];
    }
  };

  int id(const std::string& name) const;
  /// Lanes are created up front (one per worker) so none reallocates
  /// while workers hold references.
  void setLanes(std::size_t n);
  Lane& lane(std::size_t i) { return lanes_[i]; }

  double inclusive(const std::string& name) const;
  std::int64_t count(const std::string& name) const;
  double self(const std::string& name) const;
  double topLevelMs() const;

  /// The per-layer table: inclusive and self ms, share of `wallMs`, and
  /// an explicit unattributed row.
  void printTable(std::ostream& out, double wallMs) const;

private:
  std::vector<std::string> names_;
  std::vector<int> parent_;
  std::vector<Lane> lanes_;
};

/// Adds the scope's duration to one layer of a lane.
class ScopedLayer {
public:
  ScopedLayer(LayerClock::Lane& lane, int layer)
      : lane_(lane), layer_(layer), start_(Clock::now()) {}
  ~ScopedLayer() { lane_.add(layer_, msBetween(start_, Clock::now())); }

  ScopedLayer(const ScopedLayer&) = delete;
  ScopedLayer& operator=(const ScopedLayer&) = delete;

private:
  LayerClock::Lane& lane_;
  int layer_;
  Clock::time_point start_;
};

/// Every per-layer metric name, in BENCHMARK.json order. Workloads report
/// all of them; a layer a workload does not exercise reads 0.
const std::vector<std::pair<std::string, std::string>>& perLayerCatalog();

/// Emit every per-layer metric from `values` (name → value), defaulting
/// absent ones to 0, in catalog order.
void setPerLayer(RunReport& report,
                 const std::vector<std::pair<std::string, double>>& values);

RunReport runCampaignLs(const RunConfig& config);
RunReport runCampaignGreedyStore(const RunConfig& config);
RunReport runServeMixed(const RunConfig& config);

} // namespace e2e
