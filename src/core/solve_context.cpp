#include "core/solve_context.hpp"

#include <algorithm>

#include "core/asap.hpp"
#include "core/interval_refinement.hpp"
#include "obs/trace.hpp"
#include "util/require.hpp"

namespace cawo {

SolveContext::SolveContext(const EnhancedGraph& gc,
                           const PowerProfile& profile, Time deadline)
    : gc_(&gc), profile_(&profile), deadline_(deadline) {
  CAWO_REQUIRE(deadline > 0, "SolveContext: deadline must be positive");
}

const std::vector<Time>& SolveContext::initialEst() const {
  if (!haveEst_) {
    est_ = computeEst(*gc_);
    haveEst_ = true;
  }
  return est_;
}

const std::vector<Time>& SolveContext::initialLst() const {
  if (!haveLst_) {
    lst_ = computeLst(*gc_, deadline_);
    haveLst_ = true;
  }
  return lst_;
}

Time SolveContext::asapMakespan() const {
  if (asapMakespan_ < 0) {
    asapMakespan_ = cawo::asapMakespan(*gc_, initialEst());
  }
  return asapMakespan_;
}

Power SolveContext::sumWorkPower() const {
  if (sumWorkPower_ < 0) {
    Power sum = 0;
    for (ProcId p = 0; p < gc_->numProcs(); ++p) sum += gc_->workPower(p);
    sumWorkPower_ = sum;
  }
  return sumWorkPower_;
}

const std::vector<Interval>& SolveContext::refinedIntervals(
    int blockSize) const {
  const auto it = refinedByBlockSize_.find(blockSize);
  if (it != refinedByBlockSize_.end()) return it->second;
  obs::TraceScope span("context.refine");
  span.arg("block_size", static_cast<std::int64_t>(blockSize));
  return refinedByBlockSize_
      .emplace(blockSize,
               refineIntervals(*gc_, *profile_, blockSize, &refineScratch_))
      .first->second;
}

const BudgetTree& SolveContext::budgetTreePrototype(bool refined,
                                                    int blockSize) const {
  const int key = refined ? blockSize : -1;
  const auto it = budgetTrees_.find(key);
  if (it != budgetTrees_.end()) return it->second;
  obs::TraceScope span("context.budget_tree");
  const std::span<const Interval> working =
      refined ? std::span<const Interval>(refinedIntervals(blockSize))
              : profile_->intervals();
  std::vector<Time> begins;
  std::vector<Power> budgets;
  begins.reserve(working.size());
  budgets.reserve(working.size());
  for (const Interval& iv : working) {
    begins.push_back(iv.begin);
    budgets.push_back(iv.green);
  }
  return budgetTrees_
      .emplace(key, BudgetTree(std::span<const Time>(begins),
                               std::span<const Power>(budgets),
                               profile_->horizon()))
      .first->second;
}

const std::vector<TaskId>& SolveContext::scoreOrder(
    const ScoreOptions& opts) const {
  const auto key = std::make_pair(static_cast<int>(opts.base), opts.weighted);
  const auto it = orders_.find(key);
  if (it != orders_.end()) return it->second;
  obs::TraceScope span("context.score_order");
  return orders_
      .emplace(key,
               cawo::scoreOrder(*gc_, initialEst(), initialLst(), opts))
      .first->second;
}

WindowState SolveContext::windowState() const {
  return WindowState(*gc_, deadline_, initialEst(), initialLst());
}

} // namespace cawo
