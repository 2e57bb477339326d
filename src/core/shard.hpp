// Shard-level helpers of the crash-safe recording subsystem: the
// experiment config hash that ties a shard file to the run that produced
// it, and the merge/verify step that assembles disjoint-slot shards into
// one recording. The per-shard run/resume logic itself lives in
// run_experiment (core/experiment.hpp, ExperimentConfig::shard); the
// manifest codec in io/shard_manifest.hpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "io/shard_manifest.hpp"

namespace sops::core {

/// Hash of everything that determines the recorded trajectories: the
/// interaction model (force-law kind + all pair matrices), the per-particle
/// type assignment, cut-off and initialization radii, the neighbor backend
/// the run resolves to, integrator parameters, step/stride grid,
/// equilibrium-detector parameters, master seed, and the ensemble size m.
/// The backend is hashed because it is not bitwise-neutral: all-pairs and
/// the cell grid sum the same pairs in different orders, and Delaunay is a
/// different neighbor model. It is hashed *resolved*, so kAuto and the mode
/// it picks for this n and r_c hash equal. A cell-grid or all-pairs config
/// also hashes that backend's drift summation order
/// (sim::kCellGridDriftOrder, sim::kAllPairsDriftOrder), so a shard
/// recorded under another order fails to resume or merge instead of mixing
/// two orders in one ensemble. Deliberately *excludes* pure
/// scheduling and storage choices (threads, parallel policy, spill
/// settings): those are bitwise-neutral by the engine's reproducibility
/// contract, so two shards may legitimately run with different ones and
/// still merge. FNV-1a over the native byte encoding — stable within a
/// machine, which is the scope shard files already have.
[[nodiscard]] std::uint64_t experiment_config_hash(
    const ExperimentConfig& config);

/// The manifest a shard run of `config` is expected to carry — dims,
/// frame-step grid, seed, config hash, the shard's slot range, and an
/// all-clear completion state. Fresh runs write exactly this; resumes
/// validate the on-disk manifest against it.
[[nodiscard]] io::ShardManifest expected_shard_manifest(
    const ExperimentConfig& config);

/// Outcome of merge_shards, for reporting.
struct MergeResult {
  std::string data_path;      ///< the merged recording (a 1-shard file)
  std::string manifest_path;  ///< its manifest, slot range [0, m), complete
  std::size_t shard_count = 0;
  std::size_t samples_total = 0;
  std::size_t payload_bytes = 0;
};

/// Assembles N completed shards (each `path` with its `path + ".manifest"`
/// sidecar) into one recording at `out_path` (+ manifest). Verification is
/// strict — mismatched dims/grid/seed/config hash across shards, slot
/// ranges that overlap or fail to cover [0, samples_total), an incomplete
/// bitmap, or a data file whose size contradicts its manifest all throw
/// sops::Error naming the offending shard. The merged output is
/// bitwise-identical to a single-process run of the whole ensemble
/// (sample slots are disjoint extents of the same F·m·n grid), and is
/// itself a valid shard: resume-open it to analyze without recomputing.
MergeResult merge_shards(const std::vector<std::string>& shard_paths,
                         const std::string& out_path);

}  // namespace sops::core
