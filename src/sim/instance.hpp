#pragma once

#include <cstdint>
#include <string>

#include "core/enhanced_graph.hpp"
#include "core/mapping.hpp"
#include "core/platform.hpp"
#include "core/power_profile.hpp"
#include "core/task_graph.hpp"
#include "profile/profile_source.hpp"
#include "workflow/generators.hpp"

/// \file instance.hpp
/// An experiment instance bundles everything the paper's simulations vary:
/// a workflow (family × size), a cluster (nodes per processor type), a
/// HEFT mapping, the communication-enhanced graph, a power-profile scenario
/// and a deadline factor relative to the ASAP makespan D.

namespace cawo {

struct InstanceSpec {
  WorkflowFamily family = WorkflowFamily::Atacseq;
  int targetTasks = 200;
  int nodesPerType = 2;   ///< paper: 12 (small) / 24 (large)
  /// Power-profile spec resolved through the ProfileSourceRegistry: a
  /// paper scenario name ("S1" … "S4") or any registered spec such as
  /// "sine:period=24,amp=0.5" or "trace:grid.csv,repeat=1,normalize=1".
  std::string scenario = "S1";
  double deadlineFactor = 1.5; ///< paper: 1.0, 1.5, 2.0, 3.0
  int numIntervals = 24;
  std::uint64_t seed = 1;

  /// Human-readable identifier, e.g. "atacseq-200/c2/S1/d1.5".
  std::string label() const;

  /// Unique identifier over *all* axes, e.g.
  /// "atacseq-200/c2/s1/i24/d1.5/S1". Unlike `label()` it includes the
  /// seed and interval count and spells the deadline factor exactly (via
  /// shortest-round-trip formatting), so distinct cells never collide —
  /// the result store keys recovered segment lines by it. The free-form
  /// scenario spec comes last so its own '/'-es cannot shadow other axes.
  std::string cellKey() const;
};

/// Deterministic FNV-1a hash over the spec's axes alone — no instance
/// build required, unlike core/instance_hash. This is what campaign
/// sharding partitions on: every process computes the same owner for a
/// cell from the spec text, before any workflow is generated.
std::uint64_t instanceSpecHash(const InstanceSpec& spec);

/// The shard (0-based, < shardCount) that owns this instance.
std::size_t shardOfInstance(const InstanceSpec& spec, std::size_t shardCount);

struct Instance {
  InstanceSpec spec;
  TaskGraph graph;
  Platform platform;
  Mapping mapping;
  EnhancedGraph gc;
  PowerProfile profile;
  Time asapMakespanD = 0; ///< the paper's D (tightest deadline)
  Time deadline = 0;      ///< ceil(deadlineFactor * D)
};

/// Build the full instance: generate the workflow, run HEFT, build the
/// enhanced graph (HEFT start times as communication priority), compute
/// the ASAP makespan D, set the deadline, and generate the power profile
/// over exactly [0, deadline).
Instance buildInstance(const InstanceSpec& spec);

/// Reject a `deadline` — `factor` × the ASAP makespan `asapMakespan`,
/// still a double — above kMaxHorizon, before its (otherwise undefined)
/// conversion to Time. Shared by `buildInstance` and the CLI's DOT mode,
/// which round the product differently.
void requireDeadlineInRange(double deadline, double factor,
                            Time asapMakespan);

/// The exact ProfileRequest `buildInstance` used for this instance
/// (horizon, power band, interval count, derived legacy seed). The online
/// layers resolve *additional* profiles — an `actual` spec, or the
/// forecast/actual pair of the instance's own spec — through this request
/// so they are bit-identical to what a fresh build would generate.
ProfileRequest instanceProfileRequest(const Instance& instance);

} // namespace cawo
