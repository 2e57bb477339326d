// Persistent neighbor-search backends behind the simulation's pair loop.
//
// A backend is chosen once per run and rebuilt in place every step, so the
// per-step cost is pure indexing work — no hash-map construction, no bucket
// reallocation, no per-step strategy dispatch. All backends enumerate the
// neighbors of a particle in a deterministic, backend-specific order; drift
// summation follows that order, which makes the enumeration order part of
// the engine's bitwise-reproducibility contract:
//
//  - all-pairs:  ascending particle index; the drift kernel visits each
//                pair once, row i against j > i, in fixed row tiles,
//  - cell grid:  neighbors(i): 3×3 cell block in (dx, dy) order, point
//                order within cells; the drift kernel visits each pair once
//                over half shells in fixed column stripes,
//  - Delaunay:   sorted tessellation adjacency, pruned by the cut-off.
//
// Rebuilds take SoA coordinate lanes (geom::PositionLanes) — the particle
// system's native layout and what the vectorized kernels stream.
//
// The set of backends is closed: `NeighborBackend` holds exactly one of the
// three concrete backends in a std::variant, and the drift path picks each
// backend's fused kernel by variant alternative; there is no base class.
#pragma once

#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "geom/cell_grid.hpp"
#include "geom/position_lanes.hpp"
#include "geom/vec2.hpp"
#include "support/executor.hpp"

namespace sops::geom {

/// The concrete neighbor-search strategy a backend implements. The order
/// matches NeighborBackend's variant alternatives.
enum class NeighborBackendKind {
  kAllPairs,  ///< O(n²) reference; the only choice for r_c = ∞
  kCellGrid,  ///< uniform cell grid, O(n) per step at bounded density
  kDelaunay,  ///< direct tessellation neighbors, pruned by r_c
};

// Every backend offers the same surface: `rebuild(lanes, radius, executor)`
// once per step (the lane storage must stay valid until the next rebuild;
// capacity is retained), then `neighbors(i)` — the indices j ≠ i with
// ‖p_j − p_i‖ < radius in the backend's enumeration order, valid until the
// next neighbors() or rebuild() call (it may alias internal scratch) — and
// `size()`, the point count of the current build. Backends carry no
// partition of their own: the Delaunay drift splits particle ids equally
// over the executor (each row's enumeration is independent of the split),
// the all-pairs drift partitions by fixed row tiles
// (sim::kAllPairsTileRows), and the cell grid's by fixed column stripes
// (CellGrid::stripes).
// Backends are not thread-safe; use one per worker.

/// O(n²) reference backend; supports an unbounded radius.
class AllPairsBackend {
 public:
  void rebuild(PositionLanes points, double radius,
               const support::Executor& executor = support::serial_executor());
  [[nodiscard]] std::span<const std::uint32_t> neighbors(std::size_t i);
  [[nodiscard]] std::size_t size() const noexcept { return points_.size(); }

  /// Storage the all-pairs drift path keeps between steps, so steady-state
  /// stepping does not allocate: the row tiles' partial sums, packed in
  /// tile order, and one gather buffer per concurrent task (sized serially,
  /// before dispatch).
  struct DriftScratch {
    std::vector<double> partial_x;
    std::vector<double> partial_y;
    std::vector<GatherScratch> gather;
  };
  [[nodiscard]] DriftScratch& drift_scratch() noexcept { return drift_; }

 private:
  PositionLanes points_;
  double radius_ = 0.0;
  std::vector<std::uint32_t> scratch_;
  DriftScratch drift_;
};

/// Cell-grid backend; the grid is rebuilt in place each step with retained
/// bucket capacity. Requires a finite radius.
class CellGridBackend {
 public:
  /// Dispatches the grid's rebuild chunks on `executor`.
  void rebuild(PositionLanes points, double radius,
               const support::Executor& executor = support::serial_executor());
  [[nodiscard]] std::span<const std::uint32_t> neighbors(std::size_t i);
  [[nodiscard]] std::size_t size() const noexcept { return grid_.size(); }

  /// The underlying grid (exposed for capacity-retention tests).
  [[nodiscard]] const CellGrid& grid() const noexcept { return grid_; }

  /// Storage the cell-grid drift path keeps between steps, so steady-state
  /// stepping does not allocate. The caller refills it after each rebuild
  /// (the lane semantics are the caller's) and sizes `gather` serially,
  /// before dispatching one task per buffer.
  struct DriftScratch {
    std::vector<CellGrid::Stripe> stripes;  ///< the drift's partition
    std::vector<std::uint32_t> tags;        ///< types in bucket-entry order
    std::vector<double> halo_x;             ///< stripes' halo columns, packed
    std::vector<double> halo_y;
    std::vector<std::uint32_t> halo_at;     ///< stripe s's halo offset
    std::vector<GatherScratch> gather;      ///< one per concurrent task
  };
  [[nodiscard]] DriftScratch& drift_scratch() noexcept { return drift_; }

 private:
  CellGrid grid_;
  double radius_ = 0.0;
  std::vector<std::uint32_t> scratch_;
  DriftScratch drift_;
};

/// Tessellation backend: rebuild triangulates and stores the radius-pruned
/// adjacency as a CSR list, so queries are span lookups. Rejects non-finite
/// coordinates (the tessellation would silently drop them).
class DelaunayBackend {
 public:
  void rebuild(PositionLanes points, double radius,
               const support::Executor& executor = support::serial_executor());
  /// Tessellation neighbors within the radius. Read-only and
  /// shared-state-free, so the drift's parallel rows may call it from
  /// several threads between rebuilds.
  [[nodiscard]] std::span<const std::uint32_t> neighbors(
      std::size_t i) const noexcept {
    return {indices_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

 private:
  std::vector<std::size_t> offsets_;
  std::vector<std::uint32_t> indices_;
  std::vector<Vec2> points_aos_;  // interleaved copy for the tessellation
};

/// Persistent fixed-radius neighbor index of the kind chosen by the run
/// setup: one of the three concrete backends. `rebuild` once per step, then
/// query `neighbors(i)` per particle; the drift path reaches the concrete
/// backend through `get()`.
class NeighborBackend {
 public:
  using Variant =
      std::variant<AllPairsBackend, CellGridBackend, DelaunayBackend>;

  /// Throws PreconditionError on a kind outside the enum.
  explicit NeighborBackend(NeighborBackendKind kind);

  /// Re-indexes the lanes for queries with the given radius. A backend
  /// whose rebuild shards (the cell grid's counting sort) dispatches it on
  /// `executor`; results never depend on its width.
  void rebuild(PositionLanes points, double radius,
               const support::Executor& executor = support::serial_executor()) {
    std::visit([&](auto& b) { b.rebuild(points, radius, executor); },
               backend_);
  }

  /// Indices j ≠ i with ‖p_j − p_i‖ < radius, in the backend's enumeration
  /// order (Delaunay: tessellation neighbors within the radius).
  [[nodiscard]] std::span<const std::uint32_t> neighbors(std::size_t i) {
    return std::visit([&](auto& b) { return b.neighbors(i); }, backend_);
  }

  [[nodiscard]] NeighborBackendKind kind() const noexcept {
    return static_cast<NeighborBackendKind>(backend_.index());
  }

  /// Number of points of the current build (0 before the first rebuild).
  [[nodiscard]] std::size_t size() const noexcept {
    return std::visit([](const auto& b) { return b.size(); }, backend_);
  }

  /// The concrete backend.
  [[nodiscard]] Variant& get() noexcept { return backend_; }
  [[nodiscard]] const Variant& get() const noexcept { return backend_; }

 private:
  Variant backend_;
};

}  // namespace sops::geom
