// Uniform cell grid for fixed-radius neighbor queries in the plane.
//
// This is the O(n)-per-step neighbor structure behind the particle
// simulation's cut-off radius r_c: cells have side length r_c, so all
// neighbors of a point lie in its own cell and the 8 surrounding ones.
// The domain is unbounded (the paper's particles live in all of R²), so
// cells are addressed by integer coordinates relative to the occupied
// bounding box of the current build.
//
// Layout: bucket contents live in one CSR block (`starts_`/`entries_`) in
// point-index order. The per-step rebuild is a counting sort with no
// per-cell allocation, and `rebuild()` re-indexes a moving point set in
// place, retaining all capacity, so steady-state stepping performs no
// allocation.
//
// Dense cell ids are column-major spatial: ids ascend by integer cell
// coordinate (x, then y). That makes each column run of a cell block a run
// of consecutive ids, so its candidates form ONE contiguous range of the
// CSR entry block (half_shell_spans()), and walking cells in id order
// sweeps the plane column by column — neighbor buckets stay cache-resident
// between adjacent cells. When the occupied bounding box is dense enough, a
// rank array over the box maps cell coordinates to ids by arithmetic; a
// sparse box (far-flung clusters) falls back to a sorted key list and
// binary search.
//
// The rebuild runs on an executor in width() equal chunks of the point
// range — per-chunk keys and bounds, then per-chunk bin histograms — and
// a stable scatter in which each task fills one contiguous range of cells.
// A width-1 executor runs the same code inline, and every width yields the
// same ids and the same buckets.
//
// Points enter as SoA coordinate lanes (geom::PositionLanes) — the layout
// the vectorized pair kernels stream — with interleaved-span overloads that
// deinterleave into internal scratch for callers still holding Vec2 arrays.
//
// Enumeration order is part of the reproducibility contract. The neighbor
// queries visit the 3×3 block column by column (dx, then dy), ascending
// point index within a cell. The pair-drift kernel visits each unordered
// pair once: every cell pairs with itself (j after i) and with its half
// shell, the cell above and the three cells of the column to the right —
// two contiguous entry spans (half_shell_spans()). The drift partitions the
// cells into stripes of a fixed number of columns (stripes()), never into
// width-dependent shards, so the pair sums do not depend on the executor.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "geom/position_lanes.hpp"
#include "geom/vec2.hpp"
#include "support/executor.hpp"

namespace sops::geom {

/// Fixed-radius neighbor index over a point set. Rebuild per time step.
class CellGrid {
 public:
  /// Creates an empty grid; call `rebuild(points, cell_size)` before use.
  CellGrid() = default;

  /// Indexes `points` with cell side `cell_size` (use the query radius).
  /// The lane storage must stay valid while the grid is queried.
  CellGrid(PositionLanes points, double cell_size);

  /// Interleaved-span form: deinterleaves into internal lane scratch.
  CellGrid(std::span<const Vec2> points, double cell_size);

  /// Re-indexes `points` with the cell size of the previous build, keeping
  /// bucket capacity.
  void rebuild(PositionLanes points);
  void rebuild(std::span<const Vec2> points);

  /// Re-indexes `points` with a (possibly new) cell side length, in
  /// executor.width() chunks dispatched on `executor`. The result does not
  /// depend on the executor.
  void rebuild(PositionLanes points, double cell_size,
               const support::Executor& executor = support::serial_executor());
  void rebuild(std::span<const Vec2> points, double cell_size);

  /// Number of indexed points.
  [[nodiscard]] std::size_t size() const noexcept { return xs_.size(); }

  /// Invokes `fn(j)` for every point j ≠ i with ‖p_j − p_i‖ < radius.
  /// Requires radius ≤ cell_size (enforced).
  template <typename Fn>
  void for_each_neighbor(std::size_t i, double radius, Fn&& fn) const {
    const Vec2 p{xs_[i], ys_[i]};
    for_each_candidate(p, [&](std::size_t j) {
      if (j != i && dist_sq(Vec2{xs_[j], ys_[j]}, p) < radius * radius) fn(j);
    });
  }

  /// Invokes `fn(j)` for every point j with ‖p_j − q‖ < radius, where q is an
  /// arbitrary query location (j may be any indexed point).
  template <typename Fn>
  void for_each_within(Vec2 q, double radius, Fn&& fn) const {
    for_each_candidate(q, [&](std::size_t j) {
      if (dist_sq(Vec2{xs_[j], ys_[j]}, q) < radius * radius) fn(j);
    });
  }

  /// Indices of all neighbors of point i within `radius` (convenience form).
  [[nodiscard]] std::vector<std::size_t> neighbors_of(std::size_t i,
                                                      double radius) const;

  /// Cell side length the grid was built with (0 before the first build).
  [[nodiscard]] double cell_size() const noexcept { return cell_size_; }

  /// Number of occupied cells of the current build.
  [[nodiscard]] std::size_t cell_count() const noexcept { return cell_count_; }

  /// The CSR point-index block: every indexed point exactly once, grouped by
  /// cell in dense-cell-id order, ascending point index within each cell.
  /// Valid until the next rebuild.
  [[nodiscard]] std::span<const std::uint32_t> bucket_entries() const noexcept {
    return entries_;
  }

  /// CSR bucket boundaries: cell c owns entries [starts[c], starts[c+1]).
  /// Together with half_shell_spans() this lets per-cell kernels walk the
  /// grid without per-point cell lookups. Valid until the next rebuild.
  [[nodiscard]] std::span<const std::uint32_t> bucket_starts() const noexcept {
    return {starts_.data(), cell_count_ + 1};
  }

  /// Bucket-ordered coordinate lanes: bucket_x()[k] is the x coordinate of
  /// bucket_entries()[k], scattered during the rebuild's counting sort.
  /// Together with half_shell_spans() this lets the chunked pair kernel
  /// stream every candidate from contiguous memory. Valid until the next
  /// rebuild.
  [[nodiscard]] std::span<const double> bucket_x() const noexcept {
    return {bucket_x_.data(), entries_.size()};
  }
  [[nodiscard]] std::span<const double> bucket_y() const noexcept {
    return {bucket_y_.data(), entries_.size()};
  }

  using Span = std::pair<std::uint32_t, std::uint32_t>;

  /// The half shell of dense cell `cell` as two ranges [first, second) of
  /// bucket_entries(): the cell itself followed by the cell above it (one
  /// range, since ids are column-major), then the right-hand column's cells
  /// below, beside and above it (possibly empty). Every unordered pair of
  /// points in neighboring cells appears exactly once across the cells'
  /// half shells when each point of a cell pairs only with the entries
  /// after it.
  [[nodiscard]] std::array<Span, 2> half_shell_spans(std::size_t cell) const;

  /// A run of cells covering a fixed number of integer cell columns.
  /// Cells [cell_begin, cell_end) are the stripe's own; the half shells of
  /// its last column reach into cells [cell_end, halo_end) — the next
  /// stripe's first column when it is adjacent, otherwise none.
  struct Stripe {
    std::uint32_t cell_begin;
    std::uint32_t cell_end;
    std::uint32_t halo_end;
  };

  /// Partitions the occupied cells into stripes of `columns` integer cell
  /// columns each, counted from the leftmost occupied column, written to
  /// `out` (replacing its contents, keeping its capacity); stripes without
  /// an occupied cell are omitted. The partition depends only on the build
  /// and `columns`.
  void stripes(std::size_t columns, std::vector<Stripe>& out) const;

 private:
  struct CellKey {
    std::int64_t x;
    std::int64_t y;
    friend bool operator==(const CellKey&, const CellKey&) = default;
  };
  struct KeyBounds {  // inclusive key bounding box of one rebuild chunk
    std::int64_t min_x;
    std::int64_t max_x;
    std::int64_t min_y;
    std::int64_t max_y;
  };

  /// Column-major (x, then y) order: the dense-id order of cells.
  [[nodiscard]] static bool key_before(const CellKey& a,
                                       const CellKey& b) noexcept {
    return a.x != b.x ? a.x < b.x : a.y < b.y;
  }

  [[nodiscard]] CellKey key_of(Vec2 p) const noexcept;

  /// Dense ids [first, second) of the occupied cells (x, y) with
  /// y0 ≤ y ≤ y1 — consecutive, because ids are column-major.
  [[nodiscard]] Span column_cells(std::int64_t x, std::int64_t y0,
                                  std::int64_t y1) const noexcept;

  /// Id of the first occupied cell in column x or to its right
  /// (cell_count_ if none).
  [[nodiscard]] std::uint32_t first_cell_from_column(
      std::int64_t x) const noexcept;

  /// The 3×3 block around an arbitrary (possibly unoccupied) cell key as at
  /// most 3 entry ranges, one per dx column; returns the number written.
  std::size_t block_spans_at(CellKey center,
                             std::array<Span, 3>& spans) const noexcept;

  template <typename Fn>
  void for_each_candidate(Vec2 q, Fn&& fn) const {
    // An unbuilt or empty grid has no candidates (and no valid cell size to
    // derive keys from).
    if (cell_count_ == 0) return;
    std::array<Span, 3> spans;
    const std::size_t nspans = block_spans_at(key_of(q), spans);
    for (std::size_t s = 0; s < nspans; ++s) {
      for (std::uint32_t k = spans[s].first; k < spans[s].second; ++k) {
        fn(entries_[k]);
      }
    }
  }

  std::span<const double> xs_;  // coordinate lanes of the current build
  std::span<const double> ys_;
  std::vector<double> aos_x_;   // deinterleave scratch for Vec2-span callers
  std::vector<double> aos_y_;
  double cell_size_ = 0.0;

  std::size_t cell_count_ = 0;
  std::vector<std::uint32_t> starts_;   // CSR bucket starts, cell_count_+1
  std::vector<std::uint32_t> entries_;  // point indices, bucket-contiguous
  std::vector<double> bucket_x_;        // coordinates in entries_ order
  std::vector<double> bucket_y_;
  // Integer coords per dense cell id, ascending in key_before order. During
  // a rebuild it first holds each point's key.
  std::vector<CellKey> cell_keys_;
  std::vector<std::uint32_t> cell_of_;     // per-point bin (rebuild scratch)
  std::vector<KeyBounds> chunk_bounds_;    // per rebuild chunk
  std::vector<std::uint32_t> bin_counts_;  // per-chunk bin histograms; row 0
                                           // then the scatter cursors
  std::vector<std::uint32_t> bin_split_;   // scatter task bin ranges
  std::vector<CellKey> key_scratch_;  // sparse box: sorted distinct keys

  // Dense bounding-box rank of the current build (the fast spatial-order
  // path): box_rank_[i] counts the occupied cells with column-major box
  // index < i, so the spatial id of the cell at box index i is
  // box_rank_[i], and the ids inside any box range [p, q) are exactly
  // [box_rank_[p], box_rank_[q]) — which is what makes column_cells() pure
  // arithmetic. Unset (box_valid_ = false) when the occupied bounding box
  // is too sparse to rank densely; ids then come from sorting the keys and
  // lookups from binary search over cell_keys_.
  std::vector<std::uint32_t> box_rank_;  // box area + 1 exclusive prefix
  std::int64_t box_min_x_ = 0;
  std::int64_t box_min_y_ = 0;
  std::size_t box_w_ = 0;
  std::size_t box_h_ = 0;
  bool box_valid_ = false;
};

}  // namespace sops::geom
