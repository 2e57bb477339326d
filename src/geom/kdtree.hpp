// Generic-dimension k-d tree over points stored as a flat row-major array.
//
// Used by the ICP aligner (per-type 2-D correspondence trees), the
// Kozachenko–Leonenko entropy estimator (k-th-neighbor distances), and the
// conditional mutual information behind transfer entropy (k-th joint
// distances and block-max marginal counts). The tree stores indices into the
// caller's point array; the array must outlive the tree.
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

namespace sops::geom {

/// Result of a nearest-neighbor query: point index and squared distance.
struct Neighbor {
  std::size_t index = 0;
  double dist_sq = 0.0;
};

/// One contiguous coordinate range of the block-max metric: the distance
/// between two points is the max over blocks of the Euclidean norm of the
/// block coordinates (the KSG estimators' joint metric). The blocks passed
/// to a block-metric query must tile [0, dim) — every axis belongs to
/// exactly one block — which is what keeps single-axis pruning valid for
/// the composite metric: a split-axis delta² lower-bounds its block's
/// norm², which lower-bounds the max.
struct DimBlock {
  std::size_t offset = 0;
  std::size_t dim = 0;
};

/// Static k-d tree (build once, query many times) with Euclidean metric.
class KdTree {
 public:
  /// Builds a tree over `count` points of dimension `dim`, where point i
  /// occupies points[i*dim .. i*dim+dim). The span must stay valid for the
  /// lifetime of the tree. `count == 0` produces an empty tree.
  KdTree(std::span<const double> points, std::size_t dim);

  /// Number of indexed points.
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  /// Point dimension.
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }

  /// Largest batch accepted by the batched count_within_blocks overload.
  static constexpr std::size_t kMaxCountBatch = 8;

  /// Nearest neighbor of `query` (dimension `dim()`); precondition: non-empty.
  /// Allocation-free; visits points in the same order as k_nearest(query, 1)
  /// with strict-< updates, so exact ties resolve to the same index.
  ///
  /// `bound` is a squared distance the caller knows the answer lies within
  /// (the nearest distance is <= bound) — typically its distance to any one
  /// indexed point, e.g. last query's match when queries move little. The
  /// descent starts from best = nextafter(bound, +inf) instead of +inf and
  /// prunes every subtree that cannot beat it. The result is
  /// bitwise-identical to the unbounded query: the first point in visit
  /// order that attains the minimum still has every ancestor's delta² <=
  /// its distance < best, so it is still reached, and strict < still picks
  /// it. Throws PreconditionError when no point lies within `bound` (a
  /// bound below the nearest distance, or a non-finite query).
  [[nodiscard]] Neighbor nearest(
      std::span<const double> query,
      double bound = std::numeric_limits<double>::infinity()) const;

  /// The k nearest neighbors of `query`, sorted by ascending distance.
  /// Returns fewer than k if the tree holds fewer points. When
  /// `skip_index` is a valid point index, that point is excluded — used for
  /// leave-one-out queries where the query is itself an indexed point.
  [[nodiscard]] std::vector<Neighbor> k_nearest(
      std::span<const double> query, std::size_t k,
      std::size_t skip_index = static_cast<std::size_t>(-1)) const;

  /// Squared block-max distance (see DimBlock) of the k-th nearest indexed
  /// point to `query`, ties broken by multiplicity. `blocks` must tile
  /// [0, dim). Equals the k-th order statistic of the exhaustive squared
  /// distance set — bitwise, not approximately. Preconditions: k >= 1 and at
  /// least k indexed points after excluding `skip_index`.
  [[nodiscard]] double kth_block_dist_sq(
      std::span<const double> query, std::size_t k,
      std::span<const DimBlock> blocks,
      std::size_t skip_index = static_cast<std::size_t>(-1)) const;

  /// Number of indexed points with block-max distance to `query` strictly
  /// less than `radius` (compared as squared distance < radius*radius, the
  /// comparison the KSG estimators make). `blocks` must tile [0, dim).
  [[nodiscard]] std::size_t count_within_blocks(
      std::span<const double> query, double radius,
      std::span<const DimBlock> blocks,
      std::size_t skip_index = static_cast<std::size_t>(-1)) const;

  /// Batched form: `radii.size()` query points share one tree descent.
  /// `queries` holds the points back to back (radii.size() * dim doubles);
  /// query b counts points with block-max distance < radii[b], excluding
  /// skips[b], into counts[b]. Each count is bitwise-identical to the
  /// single-query overload. Batch size is capped at kMaxCountBatch; callers
  /// batch support::kSimdWidth points per descent.
  void count_within_blocks(std::span<const double> queries,
                           std::span<const double> radii,
                           std::span<const DimBlock> blocks,
                           std::span<const std::size_t> skips,
                           std::span<std::size_t> counts) const;

 private:
  struct Node {
    // Leaves hold a contiguous range of `order_`; internal nodes split on
    // axis `axis` at coordinate `split`.
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t axis = 0;
    double split = 0.0;
    int left = -1;
    int right = -1;
    [[nodiscard]] bool is_leaf() const noexcept { return left < 0; }
  };

  static constexpr std::size_t kLeafSize = 16;
  // Upper bound on the explicit traversal stack of the allocation-free
  // queries. Splits are at the median, so depth <= ceil(log2(count)) + 1 and
  // the DFS stack holds at most depth + 1 entries; 128 covers any count that
  // fits in memory.
  static constexpr std::size_t kMaxTraversalStack = 128;

  [[nodiscard]] const double* point(std::size_t i) const noexcept {
    return points_.data() + i * dim_;
  }
  // Point order_[slot], stored contiguously in leaf-scan order so hot leaf
  // loops stream instead of gathering through the permutation. Same doubles
  // as point(order_[slot]) — swapping one for the other never changes a
  // query result.
  [[nodiscard]] const double* leaf_point(std::size_t slot) const noexcept {
    return leaf_points_.data() + slot * dim_;
  }
  // Coordinate d of the leaf-ordered points as one contiguous column
  // (coordinate-major mirror of leaf_points_), so per-leaf distance loops
  // vectorize across points.
  [[nodiscard]] const double* leaf_column(std::size_t d) const noexcept {
    return leaf_columns_.data() + d * count_;
  }
  [[nodiscard]] double dist_sq_to(std::size_t i,
                                  std::span<const double> query) const noexcept;
  // Descents behind nearest(), seeded with best = `start`; both return
  // index kNoPoint when no point beat it.
  static constexpr std::size_t kNoPoint = static_cast<std::size_t>(-1);
  template <std::size_t kDim>
  [[nodiscard]] Neighbor nearest_fixed(const double* query, double start) const;
  [[nodiscard]] Neighbor nearest_generic(std::span<const double> query,
                                         double start) const;
  int build(std::size_t begin, std::size_t end);

  std::span<const double> points_;
  std::size_t dim_;
  std::size_t count_;
  std::vector<std::size_t> order_;  // permutation of point indices
  std::vector<double> leaf_points_;   // points_ permuted by order_
  std::vector<double> leaf_columns_;  // same, coordinate-major
  std::vector<Node> nodes_;
  int root_ = -1;
};

/// Brute-force reference searcher with the same interface subset as KdTree;
/// used as an oracle in tests and for tiny inputs.
class BruteForceSearcher {
 public:
  BruteForceSearcher(std::span<const double> points, std::size_t dim);

  [[nodiscard]] std::size_t size() const noexcept { return count_; }

  [[nodiscard]] Neighbor nearest(std::span<const double> query) const;
  [[nodiscard]] std::vector<Neighbor> k_nearest(
      std::span<const double> query, std::size_t k,
      std::size_t skip_index = static_cast<std::size_t>(-1)) const;
  [[nodiscard]] double kth_block_dist_sq(
      std::span<const double> query, std::size_t k,
      std::span<const DimBlock> blocks,
      std::size_t skip_index = static_cast<std::size_t>(-1)) const;
  [[nodiscard]] std::size_t count_within_blocks(
      std::span<const double> query, double radius,
      std::span<const DimBlock> blocks,
      std::size_t skip_index = static_cast<std::size_t>(-1)) const;

 private:
  std::span<const double> points_;
  std::size_t dim_;
  std::size_t count_;
};

}  // namespace sops::geom
