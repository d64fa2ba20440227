#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <ostream>
#include <stdexcept>

namespace e2e {

void RunReport::set(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

void RunReport::fail(const std::string& why) {
  correct = false;
  problems.push_back(why);
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank =
      static_cast<std::size_t>(q * static_cast<double>(samples.size()));
  return samples[std::min(rank, samples.size() - 1)];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

void Digest::add(const std::string& field) {
  for (const char c : field) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ULL;
  }
  h_ ^= 0x1f; // field separator
  h_ *= 0x100000001b3ULL;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

LayerClock::LayerClock(
    const std::vector<std::pair<std::string, std::string>>& tree) {
  for (const auto& [name, parent] : tree) {
    names_.push_back(name);
    parent_.push_back(parent.empty() ? -1 : id(parent));
  }
  setLanes(1);
}

int LayerClock::id(const std::string& name) const {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<int>(i);
  throw std::logic_error("unknown layer " + name);
}

void LayerClock::setLanes(std::size_t n) {
  lanes_.assign(n, Lane{std::vector<double>(names_.size(), 0.0),
                        std::vector<std::int64_t>(names_.size(), 0)});
}

double LayerClock::inclusive(const std::string& name) const {
  const auto i = static_cast<std::size_t>(id(name));
  double total = 0.0;
  for (const Lane& lane : lanes_) total += lane.ms[i];
  return total;
}

std::int64_t LayerClock::count(const std::string& name) const {
  const auto i = static_cast<std::size_t>(id(name));
  std::int64_t total = 0;
  for (const Lane& lane : lanes_) total += lane.count[i];
  return total;
}

double LayerClock::self(const std::string& name) const {
  const int me = id(name);
  double value = inclusive(name);
  for (std::size_t c = 0; c < names_.size(); ++c)
    if (parent_[c] == me) value -= inclusive(names_[c]);
  return value;
}

double LayerClock::topLevelMs() const {
  double total = 0.0;
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (parent_[i] < 0) total += inclusive(names_[i]);
  return total;
}

void LayerClock::printTable(std::ostream& out, double wallMs) const {
  char line[160];
  std::snprintf(line, sizeof(line), "%-30s %12s %12s %8s %10s\n", "layer",
                "incl ms", "self ms", "% wall", "count");
  out << line;
  // Depth-first so children sit under their parent.
  std::vector<std::pair<int, int>> stack; // (layer, depth)
  for (int i = static_cast<int>(names_.size()) - 1; i >= 0; --i)
    if (parent_[static_cast<std::size_t>(i)] < 0) stack.push_back({i, 0});
  while (!stack.empty()) {
    const auto [i, depth] = stack.back();
    stack.pop_back();
    const std::string& name = names_[static_cast<std::size_t>(i)];
    const std::string label = std::string(2 * depth, ' ') + name;
    std::snprintf(line, sizeof(line), "%-30s %12.3f %12.3f %8.2f %10lld\n",
                  label.c_str(), inclusive(name), self(name),
                  wallMs > 0 ? 100.0 * inclusive(name) / wallMs : 0.0,
                  static_cast<long long>(count(name)));
    out << line;
    for (int c = static_cast<int>(names_.size()) - 1; c >= 0; --c)
      if (parent_[static_cast<std::size_t>(c)] == i)
        stack.push_back({c, depth + 1});
  }
  const double unattributed = wallMs - topLevelMs();
  std::snprintf(line, sizeof(line), "%-30s %12s %12.3f %8.2f\n",
                "(unattributed)", "", unattributed,
                wallMs > 0 ? 100.0 * unattributed / wallMs : 0.0);
  out << line;
  std::snprintf(line, sizeof(line), "%-30s %12.3f\n", "wall", wallMs);
  out << line;
}

const std::vector<std::pair<std::string, std::string>>& perLayerCatalog() {
  static const std::vector<std::pair<std::string, std::string>> catalog{
      {"sim.build_ms", "ms"},
      {"sim.build_count", "count"},
      {"core.context.windows_ms", "ms"},
      {"core.context.refine_ms", "ms"},
      {"core.context.budget_tree_ms", "ms"},
      {"core.context.score_order_ms", "ms"},
      {"core.greedy_ms", "ms"},
      {"core.ls_ms", "ms"},
      {"core.ls_rounds", "count"},
      {"core.ls_moves", "count"},
      {"core.ls_move_yield", "ratio"},
      {"solver.solve_ms", "ms"},
      {"solver.post_ms", "ms"},
      {"exp.record_ms", "ms"},
      {"exp.store_append_ms", "ms"},
      {"exp.export_ms", "ms"},
      {"exp.fsyncs", "count"},
      {"exp.store_bytes", "bytes"},
      {"online.plan_ms", "ms"},
      {"online.resolve_ms", "ms"},
      {"online.resolves", "count"},
      {"online.resolve_accept_ratio", "ratio"},
      {"serve.queue_wait_ms_p50", "ms"},
      {"serve.queue_wait_ms_p99", "ms"},
      {"serve.server_latency_ms_p50", "ms"},
      {"serve.wire_ms_p50", "ms"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.cache_evictions", "count"},
      {"serve.queue_full", "count"},
      {"serve.timeouts", "count"},
      {"loadgen.lag_ms_p99", "ms"},
      {"traced_wall_ms", "ms"},
      {"unattributed_ms", "ms"},
      {"obs.trace_overhead_ratio", "ratio"},
  };
  return catalog;
}

void setPerLayer(RunReport& report,
                 const std::vector<std::pair<std::string, double>>& values) {
  std::map<std::string, double> byName;
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const auto& entry : perLayerCatalog())
      known = known || entry.first == name;
    if (!known) throw std::logic_error("metric not in catalog: " + name);
    byName[name] = value;
  }
  for (const auto& [name, unit] : perLayerCatalog()) {
    const auto it = byName.find(name);
    report.set(name, it == byName.end() ? 0.0 : it->second, unit);
  }
}

} // namespace e2e
