#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/require.hpp"

namespace cawo {

std::vector<std::vector<int>> rankDistribution(const CostMatrix& m) {
  const std::size_t A = m.numAlgorithms();
  std::vector<std::vector<int>> counts(A, std::vector<int>(A, 0));
  for (const auto& row : m.costs) {
    for (std::size_t a = 0; a < A; ++a) {
      int rank = 1;
      for (std::size_t b = 0; b < A; ++b)
        if (row[b] < row[a]) ++rank;
      ++counts[a][static_cast<std::size_t>(rank - 1)];
    }
  }
  return counts;
}

std::vector<std::vector<double>> performanceProfile(
    const CostMatrix& m, const std::vector<double>& taus) {
  const std::size_t A = m.numAlgorithms();
  std::vector<std::vector<double>> profile(A,
                                           std::vector<double>(taus.size()));
  const std::size_t I = m.numInstances();
  CAWO_REQUIRE(I > 0, "empty cost matrix");

  // ratio[i][a] = best/own.
  std::vector<std::vector<double>> ratio(I, std::vector<double>(A));
  for (std::size_t i = 0; i < I; ++i) {
    const Cost best = *std::min_element(m.costs[i].begin(), m.costs[i].end());
    for (std::size_t a = 0; a < A; ++a) {
      const Cost own = m.costs[i][a];
      ratio[i][a] = (own == 0) ? 1.0
                               : static_cast<double>(best) /
                                     static_cast<double>(own);
    }
  }
  for (std::size_t a = 0; a < A; ++a) {
    for (std::size_t t = 0; t < taus.size(); ++t) {
      int count = 0;
      for (std::size_t i = 0; i < I; ++i)
        if (ratio[i][a] >= taus[t]) ++count;
      profile[a][t] = static_cast<double>(count) / static_cast<double>(I);
    }
  }
  return profile;
}

std::vector<double> ratiosVsBaseline(const CostMatrix& m,
                                     std::size_t baseline, std::size_t algo) {
  CAWO_REQUIRE(baseline < m.numAlgorithms() && algo < m.numAlgorithms(),
               "algorithm index out of range");
  std::vector<double> out;
  out.reserve(m.numInstances());
  for (const auto& row : m.costs) {
    const Cost base = row[baseline];
    const Cost own = row[algo];
    if (base == 0) {
      if (own == 0) out.push_back(1.0);
      // else: undefined ratio, skipped (cannot improve on zero)
    } else {
      out.push_back(static_cast<double>(own) / static_cast<double>(base));
    }
  }
  return out;
}

double medianOf(std::vector<double> values) {
  CAWO_REQUIRE(!values.empty(), "median of empty set");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n % 2 == 1) return values[n / 2];
  return 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double meanOf(const std::vector<double>& values) {
  CAWO_REQUIRE(!values.empty(), "mean of empty set");
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

namespace {

/// Linear-interpolation quantile on sorted data (type-7, as in NumPy/R).
double quantileSorted(const std::vector<double>& sorted, double q) {
  const std::size_t n = sorted.size();
  if (n == 1) return sorted[0];
  const double pos = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, n - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

} // namespace

BoxStats boxStats(std::vector<double> values) {
  CAWO_REQUIRE(!values.empty(), "box stats of empty set");
  std::sort(values.begin(), values.end());
  BoxStats s;
  s.min = values.front();
  s.max = values.back();
  s.q1 = quantileSorted(values, 0.25);
  s.median = quantileSorted(values, 0.5);
  s.q3 = quantileSorted(values, 0.75);
  const double iqr = s.q3 - s.q1;
  const double lowFence = s.q1 - 1.5 * iqr;
  const double highFence = s.q3 + 1.5 * iqr;
  s.whiskerLo = s.max;
  s.whiskerHi = s.min;
  for (const double v : values) {
    if (v < lowFence || v > highFence) {
      s.outliers.push_back(v);
    } else {
      s.whiskerLo = std::min(s.whiskerLo, v);
      s.whiskerHi = std::max(s.whiskerHi, v);
    }
  }
  return s;
}

} // namespace cawo
