#pragma once

#include <string>
#include <vector>

#include "util/types.hpp"

/// \file stats.hpp
/// Statistics used by the paper's evaluation figures: competition rankings
/// (Fig. 1), performance profiles (Figs. 2/3/17), cost ratios vs the ASAP
/// baseline with medians and boxplots (Figs. 4/5/6/14/15/16), and basic
/// descriptive statistics (Table 2).

namespace cawo {

/// costs[i][a] = carbon cost of algorithm a on instance i.
struct CostMatrix {
  std::vector<std::string> algorithms;
  std::vector<std::vector<Cost>> costs;

  std::size_t numInstances() const { return costs.size(); }
  std::size_t numAlgorithms() const { return algorithms.size(); }
};

/// Competition ranking ("1224"): on each instance an algorithm's rank is
/// 1 + (number of algorithms with strictly smaller cost). Returns
/// counts[a][r-1] = number of instances where algorithm a has rank r.
std::vector<std::vector<int>> rankDistribution(const CostMatrix& m);

/// Performance-profile value per algorithm and τ: the fraction of
/// instances whose ratio (best cost / own cost) is ≥ τ. A 0/0 ratio
/// counts as 1 (both optimal), x/0 with x > 0 as 0.
std::vector<std::vector<double>> performanceProfile(
    const CostMatrix& m, const std::vector<double>& taus);

/// Cost ratios own/baseline per instance for one algorithm. Instances
/// where the baseline has cost 0 but the algorithm does not are skipped
/// (the ratio is undefined); 0/0 counts as 1.
std::vector<double> ratiosVsBaseline(const CostMatrix& m,
                                     std::size_t baseline, std::size_t algo);

double medianOf(std::vector<double> values);
double meanOf(const std::vector<double>& values);

struct BoxStats {
  double min = 0, q1 = 0, median = 0, q3 = 0, max = 0;
  double whiskerLo = 0, whiskerHi = 0; ///< 1.5 IQR fences clipped to data
  std::vector<double> outliers;
};

/// Tukey box plot statistics (linear-interpolation quartiles).
BoxStats boxStats(std::vector<double> values);

} // namespace cawo
