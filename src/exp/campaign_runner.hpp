#pragma once

#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/record.hpp"
#include "sim/runner.hpp"
#include "sim/stats.hpp"
#include "solver/solver.hpp"

/// \file campaign_runner.hpp
/// Executes a `CampaignSpec` and emits machine-readable results (see
/// docs/formats.md, "Campaign result JSON").
///
/// This is the repository's one grid executor: the CLI, every figure and
/// table, the examples and the tests run their grids through it. It
/// expands the campaign's cross-product into instances, builds and solves
/// them with `parallelFor` sharding over *instances* (each shard runs the
/// full solver selection on its instance with one shared `SolveContext`),
/// and hands each finished instance's cell group to a `RecordSink`
/// (exp/record_sink.hpp):
///   * `runCampaign` feeds a `MemoryRecordSink` — the batch-in-RAM path
///     producing a `CampaignOutcome` with every record;
///   * `runCampaignToStore` feeds a `CampaignStoreWriter` (exp/store.hpp)
///     — the streaming out-of-core path for production-scale sweeps, with
///     resume (only missing cells are solved) and multi-process sharding.
/// Both paths produce byte-identical final JSON documents on the same
/// spec; the summaries come from the shared `SummaryAccumulator`.

namespace cawo {

class CampaignStoreReader;
class CampaignStoreWriter;

/// Everything a campaign run produced.
struct CampaignOutcome {
  CampaignSpec spec;
  /// Per-instance cell labels in run order: the resolved solver selection
  /// offline; the solver × policy cross-product ("solver @ policy") in
  /// online mode. `records` is instance-major with this stride.
  std::vector<std::string> solvers;
  /// The policy axis (online mode; empty offline).
  std::vector<std::string> policies;
  /// Distinct scenario specs: the paper's S1..S4 first (canonical order),
  /// then any other specs in first-appearance order.
  std::vector<std::string> scenarios;
  std::size_t numInstances = 0;        ///< instances in the grid
  std::vector<CampaignRecord> records; ///< |instances| × |solvers| cells
  std::vector<SolverSummary> summaries;

  /// The cells of instance `i` (expansion order), one per label in
  /// `solvers` order. Requires the records to be present.
  std::span<const CampaignRecord> instanceCells(std::size_t i) const;
};

/// The figure statistics' input (sim/stats): one row per instance whose
/// spec `keep` accepts (all when empty), one column per cell label.
/// Skipped cells are left out; every kept instance must skip the same
/// cells, else this throws.
CostMatrix toCostMatrix(
    const CampaignOutcome& outcome,
    const std::function<bool(const InstanceSpec&)>& keep = {});

/// Progress callback: (cells finished, total cells).
using CampaignProgress = std::function<void(std::size_t, std::size_t)>;

/// Distinct scenario specs of a campaign in document order: the paper's
/// S1..S4 first (canonical order), then any other specs in
/// first-appearance order. Shared by the runner, the store export and the
/// `query` summary view.
std::vector<std::string> campaignDistinctScenarios(const CampaignSpec& spec);

/// Run the whole campaign. Instances are built and solved in parallel
/// (`spec.threads`, 0 = hardware concurrency); records are ordered
/// instance-major in expansion order, so the output is deterministic
/// regardless of the thread count. Solvers that do not fit an instance
/// (see solverFitsInstance) yield a record with `skipped = true`.
CampaignOutcome runCampaign(const CampaignSpec& spec,
                            const SolverOptions& options = {},
                            const CampaignProgress& progress = {});

/// Per-run counters of a store-backed campaign run: how much work the
/// shard owned, how much was already durable (resume), how much this run
/// actually solved. The resume contract is asserted on these — a resumed
/// run must report `cellsSolved == shardCells - presentBefore`.
struct CampaignRunStats {
  std::size_t totalCells = 0;     ///< whole campaign, all shards
  std::size_t shardCells = 0;     ///< cells this shard owns
  std::size_t presentBefore = 0;  ///< owned cells already durable at open
  /// Cells newly made durable by this run — after a torn-tail recovery an
  /// instance re-solves whole but only its missing cells are appended.
  std::size_t cellsSolved = 0;
  std::size_t instancesSolved = 0;///< instances solved by this run
  bool cappedByMaxCells = false;  ///< stopped early by the maxCells cap

  // Throughput of this run's solve loop, printed by `campaign --store`.
  // Cells/s counts every cell solved (a resumed instance re-solves
  // whole), records/s only the newly durable ones.
  double wallSec = 0.0;
  double cellsPerSec = 0.0;
  double recordsPerSec = 0.0;
  std::int64_t fsyncs = 0; ///< fsync syscalls issued by group commits
};

/// Run (the missing part of) the store's campaign into its shard. Only
/// instances the shard owns and that are not yet fully present are built
/// and solved; everything else is skipped without touching a workflow.
/// `maxCells > 0` caps this run to the first ceil(maxCells/stride)
/// pending instances in expansion order — a deterministic interruption
/// point for crash/resume testing and incremental sweeps. The progress
/// callback sees (cells done this run, cells to do this run). The store
/// is flushed before returning.
CampaignRunStats runCampaignToStore(const SolverOptions& options,
                                    CampaignStoreWriter& store,
                                    const CampaignProgress& progress = {},
                                    std::size_t maxCells = 0);

/// Write the outcome as one JSON document: a `campaign` header object, a
/// `records` array (one single-line object per cell — grep-friendly, still
/// one valid document) and a `summary` array.
void writeCampaignJson(std::ostream& out, const CampaignOutcome& outcome);
std::string toCampaignJsonString(const CampaignOutcome& outcome);
void writeCampaignJsonFile(const std::string& path,
                           const CampaignOutcome& outcome);

/// The same document, assembled from a complete store: record lines are
/// spliced in verbatim from the segments (never re-serialized) and the
/// summaries recomputed with the streaming accumulator, so the bytes
/// equal the legacy in-memory path's on the same spec. Throws when the
/// store is incomplete — a partial sweep has no meaningful summary.
void writeCampaignJsonFromStore(std::ostream& out,
                                CampaignStoreReader& reader);
void writeCampaignJsonFileFromStore(const std::string& path,
                                    CampaignStoreReader& reader);

/// Summarise a complete store into a record-free outcome (records stay on
/// disk) — what `printCampaignSummary` needs, without O(cells) memory.
CampaignOutcome summariseStore(CampaignStoreReader& reader);

/// Print the per-solver summary table; with `perScenario` also one median-
/// ratio table per scenario (the Figure 15 view).
void printCampaignSummary(std::ostream& out, const CampaignOutcome& outcome,
                          bool perScenario = false);

} // namespace cawo
