#pragma once

// Shared fixtures and builders for the CaWoSched test suite.

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/enhanced_graph.hpp"
#include "core/power_profile.hpp"
#include "core/schedule.hpp"
#include "exp/campaign.hpp"
#include "exp/campaign_runner.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace cawo::testing {

/// A campaign whose grid is exactly the one instance `spec` (solver
/// selection: the suite).
inline CampaignSpec singleInstanceCampaign(const InstanceSpec& spec) {
  CampaignSpec campaign;
  campaign.families = {spec.family};
  campaign.tasks = {spec.targetTasks};
  campaign.nodesPerType = {spec.nodesPerType};
  campaign.scenarios = {spec.scenario};
  campaign.deadlineFactors = {spec.deadlineFactor};
  campaign.numIntervals = spec.numIntervals;
  campaign.seeds = {spec.seed};
  return campaign;
}

/// Every solver that ran returned a valid schedule: an infeasible record
/// is a library bug (skipped cells never ran).
inline void expectAllFeasible(const CampaignOutcome& outcome) {
  for (const CampaignRecord& r : outcome.records)
    EXPECT_TRUE(r.skipped || r.feasible)
        << r.solver << " produced an invalid schedule on " << r.instance;
}

/// A single-processor chain of the given task lengths (the uniprocessor
/// setting of Theorem 4.1).
inline EnhancedGraph makeChainGc(const std::vector<Time>& lens,
                                 Power idle = 1, Power work = 3) {
  std::vector<EnhancedGraph::Node> nodes(lens.size());
  std::vector<TaskId> order;
  for (std::size_t i = 0; i < lens.size(); ++i) {
    nodes[i].original = static_cast<TaskId>(i);
    nodes[i].proc = 0;
    nodes[i].len = lens[i];
    order.push_back(static_cast<TaskId>(i));
  }
  return EnhancedGraph::fromParts(std::move(nodes), {}, {idle}, {work},
                                  {std::move(order)});
}

/// Independent tasks, one per processor, with per-processor powers.
inline EnhancedGraph makeIndependentGc(const std::vector<Time>& lens,
                                       const std::vector<Power>& idle,
                                       const std::vector<Power>& work) {
  std::vector<EnhancedGraph::Node> nodes(lens.size());
  std::vector<std::vector<TaskId>> orders(lens.size());
  for (std::size_t i = 0; i < lens.size(); ++i) {
    nodes[i].original = static_cast<TaskId>(i);
    nodes[i].proc = static_cast<ProcId>(i);
    nodes[i].len = lens[i];
    orders[i] = {static_cast<TaskId>(i)};
  }
  return EnhancedGraph::fromParts(std::move(nodes), {}, idle, work,
                                  std::move(orders));
}

/// A small multiprocessor graph from explicit parts:
/// `tasks[i] = {proc, len}`, plus explicit precedence edges. Per-processor
/// orders follow the task index order.
inline EnhancedGraph makeGc(
    const std::vector<std::pair<ProcId, Time>>& tasks,
    const std::vector<std::pair<TaskId, TaskId>>& edges,
    const std::vector<Power>& idle, const std::vector<Power>& work) {
  std::vector<EnhancedGraph::Node> nodes(tasks.size());
  std::vector<std::vector<TaskId>> orders(idle.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    nodes[i].original = static_cast<TaskId>(i);
    nodes[i].proc = tasks[i].first;
    nodes[i].len = tasks[i].second;
    orders[static_cast<std::size_t>(tasks[i].first)].push_back(
        static_cast<TaskId>(i));
  }
  return EnhancedGraph::fromParts(std::move(nodes), edges, idle, work,
                                  std::move(orders));
}

/// A random DAG on `n` nodes spread over `numProcs` processors: every
/// candidate edge (i, j), i < j, is kept with probability ~`density`.
/// Per-processor orders follow node-index order, so chain edges always
/// point forward and the graph stays acyclic.
inline EnhancedGraph randomDag(int n, int numProcs, double density,
                               Rng& rng) {
  std::vector<std::pair<ProcId, Time>> tasks;
  tasks.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    tasks.push_back({static_cast<ProcId>(rng.uniformInt(0, numProcs - 1)),
                     rng.uniformInt(1, 9)});
  std::vector<std::pair<TaskId, TaskId>> edges;
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j)
      if (rng.uniformReal(0.0, 1.0) < density)
        edges.push_back({static_cast<TaskId>(i), static_cast<TaskId>(j)});
  std::vector<Power> idle, work;
  for (int p = 0; p < numProcs; ++p) {
    idle.push_back(rng.uniformInt(1, 3));
    work.push_back(rng.uniformInt(1, 6));
  }
  return makeGc(tasks, edges, idle, work);
}

/// A random feasible schedule for `gc` under `deadline`: walks the
/// topological order, choosing each start uniformly in the dynamic window.
inline Schedule randomSchedule(const EnhancedGraph& gc, Time deadline,
                               Rng& rng) {
  std::vector<Time> lst(static_cast<std::size_t>(gc.numNodes()));
  {
    const auto& topo = gc.topoOrder();
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      const TaskId u = *it;
      Time latest = deadline - gc.len(u);
      for (TaskId s : gc.succs(u))
        latest = std::min(latest, lst[static_cast<std::size_t>(s)] - gc.len(u));
      lst[static_cast<std::size_t>(u)] = latest;
    }
  }
  Schedule s(gc.numNodes());
  for (const TaskId u : gc.topoOrder()) {
    Time est = 0;
    for (TaskId p : gc.preds(u)) est = std::max(est, s.start(p) + gc.len(p));
    const Time hi = lst[static_cast<std::size_t>(u)];
    s.setStart(u, est >= hi ? est : rng.uniformInt(est, hi));
  }
  return s;
}

/// A small random profile over [0, horizon) with budgets in [lo, hi].
inline PowerProfile randomProfile(Time horizon, int numIntervals, Power lo,
                                  Power hi, Rng& rng) {
  PowerProfile p;
  Time remaining = horizon;
  for (int j = 0; j < numIntervals && remaining > 0; ++j) {
    Time len = (j + 1 == numIntervals)
                   ? remaining
                   : rng.uniformInt(1, std::max<Time>(1, remaining -
                                                             (numIntervals -
                                                              j - 1)));
    len = std::min(len, remaining);
    p.appendInterval(len, rng.uniformInt(lo, hi));
    remaining -= len;
  }
  if (remaining > 0) p.appendInterval(remaining, lo);
  return p;
}

} // namespace cawo::testing
