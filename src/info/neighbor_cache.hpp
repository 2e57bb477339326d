// Per-frame kd-tree reuse across the information estimators.
//
// An analyzer frame with entropy curves runs one Kozachenko–Leonenko call
// per observer block plus the joint against the same SampleMatrix. Without a
// cache each call scans every sample pair; a FrameNeighborCache bound to the
// frame's matrix builds each subspace tree once, on first use, and hands the
// same tree to every subsequent query on that subspace. The conditional
// mutual information builds a local cache per call for its four subspaces.
// The KSG multi-information and its decomposition build no trees.
//
// Thread-safety contract: tree_for() mutates the cache and must be called
// from one thread at a time. The estimators honor this by resolving every
// tree they need serially at entry, before fanning their per-sample query
// chunks out on the executor — the parallel phase only reads.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "geom/kdtree.hpp"
#include "info/sample_matrix.hpp"

namespace sops::info {

/// Caches one kd-tree per queried subspace of a single SampleMatrix. The
/// matrix must outlive the cache; estimators that accept a cache verify it
/// is bound to the matrix they were handed.
class FrameNeighborCache {
 public:
  /// One subspace searcher: a kd-tree over the listed blocks' coordinates,
  /// gathered per sample into a contiguous point.
  struct SubspaceTree {
    /// Owned gathered coordinates; empty when the blocks tile the full row
    /// in listed order, in which case the tree indexes the matrix storage
    /// directly (zero copy).
    std::vector<double> storage;
    /// The query blocks re-based onto the gathered layout, for blocked
    /// (max-over-blocks) distance queries against the tree.
    std::vector<geom::DimBlock> metric;
    /// Gathered point dimension (sum of block widths).
    std::size_t point_dim = 0;
    /// The flat points the tree indexes (storage or the matrix's own rows).
    std::span<const double> points;
    geom::KdTree tree;

    SubspaceTree(std::vector<double> gathered,
                 std::vector<geom::DimBlock> rebased, std::size_t dim,
                 std::span<const double> view)
        : storage(std::move(gathered)),
          metric(std::move(rebased)),
          point_dim(dim),
          points(storage.empty() ? view : std::span<const double>(storage)),
          tree(points, dim) {}

    /// Gathered coordinates of one sample — the query point for
    /// leave-one-out searches. Consecutive samples are contiguous, so a
    /// batch of queries is one subspan.
    [[nodiscard]] std::span<const double> query(std::size_t sample) const {
      return points.subspan(sample * point_dim, point_dim);
    }
  };

  explicit FrameNeighborCache(const SampleMatrix& samples);

  /// The matrix this cache is bound to.
  [[nodiscard]] const SampleMatrix& samples() const noexcept {
    return *samples_;
  }

  /// The searcher for the subspace spanned by `blocks` (in the given
  /// order), built on first use. The returned reference stays valid for the
  /// cache's lifetime. Single-threaded (see file comment).
  [[nodiscard]] const SubspaceTree& tree_for(std::span<const Block> blocks);

  /// Number of distinct subspace trees built so far.
  [[nodiscard]] std::size_t tree_count() const noexcept {
    return entries_.size();
  }

 private:
  struct Entry {
    std::vector<Block> key;
    std::unique_ptr<SubspaceTree> tree;
  };

  const SampleMatrix* samples_;
  std::vector<Entry> entries_;
};

}  // namespace sops::info
