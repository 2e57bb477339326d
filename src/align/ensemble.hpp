// Ensemble reduction to shape space (paper §5.2).
//
// Input: m sampled configurations of the same collective at one time step.
// Output: an m×2n SampleMatrix of isometry- and permutation-reduced
// coordinates w⁽ᵗ⁾, with one 2-wide observer block per particle:
//
//   1. each sample is centered on its centroid          (translations)
//   2. each sample is ICP-aligned to a reference sample (rotations)
//   3. particles are reordered by the same-type NN correspondence to the
//      reference                                        (permutations S*_n)
//
// The reference is sample 0; the paper aligns "all configuration samples for
// each time step" without naming a reference, and any fixed choice differs
// only by a global isometry, which the measure is invariant to.
//
// For large collectives the per-type k-means "mean observers" of §5.3.1 are
// provided: clusters are formed once on the reference sample and transported
// to every aligned sample by nearest-centroid assignment, which keeps
// cluster identity consistent across samples.
#pragma once

#include <cstddef>
#include <vector>

#include "align/icp.hpp"
#include "geom/frame_view.hpp"
#include "info/sample_matrix.hpp"
#include "rng/engine.hpp"

namespace sops::support {
class Executor;
}  // namespace sops::support

namespace sops::align {

/// An ensemble reduced to shape space: one row per sample, one 2-wide block
/// per observer, and the type of each observer block.
struct AlignedEnsemble {
  info::SampleMatrix samples;
  std::vector<info::Block> blocks;
  std::vector<sim::TypeId> block_types;

  [[nodiscard]] std::size_t sample_count() const noexcept {
    return samples.count();
  }
  [[nodiscard]] std::size_t observer_count() const noexcept {
    return blocks.size();
  }
};

/// Ensemble-alignment options.
struct EnsembleOptions {
  IcpOptions icp{};
  std::size_t threads = 0;
  /// When set, the per-sample alignment loop dispatches on this executor (a
  /// persistent pool view the caller reuses across frames) and `threads`
  /// is ignored; when null, a transient TaskPool of `threads` width runs the
  /// call. Never affects results: every sample's alignment is
  /// independent and writes its own row.
  const support::Executor* executor = nullptr;
  /// Skip the ICP rotation (still centers and permutes). Used by ablations
  /// to show the effect of factoring rotations out.
  bool rotations = true;
};

/// Aligns m same-shaped configurations into shape space. `configs[s]` is
/// sample s; all samples share the particle `types` array (one collective,
/// §5.1). Requires at least one sample. This is the span-based entry point
/// the flat FrameStore feeds frame views into.
[[nodiscard]] AlignedEnsemble align_ensemble(
    geom::FrameView configs, const std::vector<sim::TypeId>& types,
    const EnsembleOptions& options = {});

/// Convenience overload for nested-vector configurations (single-run
/// trajectories, tests); identical semantics and results.
[[nodiscard]] AlignedEnsemble align_ensemble(
    const std::vector<std::vector<geom::Vec2>>& configs,
    const std::vector<sim::TypeId>& types, const EnsembleOptions& options = {});

/// Per-type k-means mean observers (§5.3.1): reduces an aligned ensemble of
/// n particles to l·k_per_type cluster-mean observers. Clusters are seeded
/// on the reference (row 0) with k-means++ and transported to other rows by
/// nearest-centroid assignment; a cluster left empty in a row falls back to
/// that row's type mean. Types with fewer than k_per_type particles get one
/// cluster per particle.
[[nodiscard]] AlignedEnsemble coarse_grain_ensemble(const AlignedEnsemble& fine,
                                                    std::size_t k_per_type,
                                                    rng::Xoshiro256& engine);

}  // namespace sops::align
