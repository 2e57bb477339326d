// Type-aware ICP alignment of particle configurations (paper §5.2).
//
// To align two same-type-histogram configurations, the paper lifts each 2-D
// particle to 3-D with its type as a z coordinate "scaled by a factor a
// magnitude larger than the diameter of the collective": nearest-neighbor
// correspondences then never cross types. We implement the lift's *effect*
// directly: each type's targets get their own 2-D k-d tree and a particle
// queries only its type's tree — for same-type pairs the lifted distance is
// exactly the planar distance (the type axis contributes 0), so this is the
// same correspondence without scanning wrong-type candidates. The rigid
// update is restricted to the plane (a rotation never moves the z
// coordinate, so the 2-D Procrustes fit of the xy components is the exact
// 3-D optimum).
//
// ICP converges to a local optimum; because particle shapes have near-
// symmetries (rings, discs), we restart from several initial rotations and
// keep the best final mean-squared error. This multi-restart is our
// implementation choice (the paper does not describe one); with 1 restart
// the algorithm reduces to plain ICP.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "geom/kdtree.hpp"
#include "geom/rigid_transform.hpp"
#include "sim/particle_system.hpp"
#include "support/error.hpp"

namespace sops::align {

/// ICP options.
struct IcpOptions {
  std::size_t max_iterations = 50;      ///< >= 1
  double convergence_tolerance = 1e-9;  ///< >= 0; stop when MSE improves less
  std::size_t rotation_restarts = 8;    ///< initial angles spread over [0, 2π)
};

/// Result of aligning a source configuration onto a target.
struct IcpResult {
  geom::RigidTransform2 transform;   ///< apply to source to match target
  /// NN MSE in the plane of the winning restart. A converged descent
  /// reports the least MSE among its evaluations; one that reaches
  /// max_iterations evaluates its final fit and reports that fit's MSE.
  double mean_squared_error = 0.0;
  std::size_t iterations = 0;        ///< iterations of the winning restart
};

/// How IcpReference::nearest answered a query.
enum class CorrespondenceRoute : std::uint8_t {
  kGrid,       ///< unique minimum over the query cell's candidates
  kUncovered,  ///< kd-tree: query outside the grid, in an uncovered cell, or NaN
  kTie,        ///< kd-tree: two candidates tie for the minimum
};

/// One nearest same-type target.
struct Correspondence {
  std::size_t index = 0;  ///< index into the reference's target
  geom::Vec2 point{};     ///< that target's coordinates
  CorrespondenceRoute route = CorrespondenceRoute::kGrid;
};

/// The fixed side of an alignment: a target configuration indexed for
/// same-type nearest-neighbor queries. Build it once and align any number of
/// sources onto it; queries are const and safe to run concurrently.
///
/// Per type it keeps the type's coordinates, a 2-D kd-tree over them and a
/// uniform grid over their padded bounding box whose cells list candidate
/// ids: every target that could be nearest to some point of the cell. A
/// query scans its cell's candidates with the kd-tree's own distance
/// expression and returns the unique minimum — the point KdTree::nearest
/// returns too, since the tree is an exact argmin over the same computed
/// distances. Queries outside the grid, in an uncovered cell, tied, or NaN
/// go to the tree unchanged.
class IcpReference {
 public:
  /// Shape of one type's grid: `columns` × `rows` square cells of side
  /// `cell_size` from `origin`. A type whose grid is empty (no points, all
  /// points coincident, or coordinates too large for the spacing) answers
  /// every query from its tree.
  struct Grid {
    geom::Vec2 origin{};
    double cell_size = 0.0;
    std::uint32_t columns = 0;
    std::uint32_t rows = 0;
  };

  /// Requires a non-empty, finite target with one type per point.
  IcpReference(std::span<const geom::Vec2> target,
               std::span<const sim::TypeId> target_types);

  // Each tree views its type's coordinate array; a copy's trees would view
  // the original's arrays.
  IcpReference(const IcpReference&) = delete;
  IcpReference& operator=(const IcpReference&) = delete;

  /// Number of target points.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Target points per type, indexed by type id (up to the max type id).
  [[nodiscard]] std::span<const std::size_t> type_counts() const noexcept {
    return type_counts_;
  }

  /// The grid of type `type` (< type_counts().size()).
  [[nodiscard]] const Grid& grid(sim::TypeId type) const;

  /// Nearest target of type `type` to `query`: the target KdTree::nearest
  /// returns over that type's points, exact ties included. `bound` as in
  /// KdTree::nearest; a NaN query throws its PreconditionError.
  /// The grid route is inline: it is ICP's per-point inner loop, and
  /// compiled into the descent it runs about 1.5x faster than as a call.
  /// The rare kd-tree fallback stays out of line.
  [[nodiscard]] Correspondence nearest(
      geom::Vec2 query, sim::TypeId type,
      double bound = std::numeric_limits<double>::infinity()) const;

 private:
  struct TypeIndex {
    // Takes one type's points and builds its tree and candidate grid.
    TypeIndex(std::vector<double> coords_in, std::vector<std::uint32_t> index_in);

    std::vector<double> coords;         // flat (x, y), ascending target index
    std::vector<std::uint32_t> index;   // target index of each point
    geom::KdTree tree;                  // over coords
    Grid grid;
    double inverse_cell_size = 0.0;
    std::vector<std::uint32_t> cell_start;  // CSR: columns * rows + 1
    std::vector<std::uint32_t> candidates;  // local ids, ascending per cell
  };

  // nearest()'s kd-tree route: outside the grid, uncovered cell, tie, NaN.
  static Correspondence tree_nearest(const TypeIndex& t, geom::Vec2 query,
                                     double bound, CorrespondenceRoute route);

  std::size_t size_ = 0;
  std::vector<std::size_t> type_counts_;
  std::vector<TypeIndex> types_;
};

inline Correspondence IcpReference::nearest(geom::Vec2 query, sim::TypeId type,
                                            double bound) const {
  support::expect(type < types_.size(), "IcpReference::nearest: unknown type");
  const TypeIndex& t = types_[type];
  CorrespondenceRoute route = CorrespondenceRoute::kUncovered;
  // Both comparisons fail on NaN, and on an empty grid (0 columns).
  const double fx = (query.x - t.grid.origin.x) * t.inverse_cell_size;
  const double fy = (query.y - t.grid.origin.y) * t.inverse_cell_size;
  if (fx >= 0.0 && fy >= 0.0 && fx < t.grid.columns && fy < t.grid.rows) {
    const std::size_t cell =
        std::size_t{static_cast<std::uint32_t>(fy)} * t.grid.columns +
        static_cast<std::uint32_t>(fx);
    const std::uint32_t* it = t.candidates.data() + t.cell_start[cell];
    const std::uint32_t* const end = t.candidates.data() + t.cell_start[cell + 1];
    if (it != end) {
      double best = std::numeric_limits<double>::infinity();
      std::uint32_t best_id = 0;
      bool tie = false;
      for (; it != end; ++it) {
        // The kd-tree's distance expression (the build never fuses it).
        const double dx = t.coords[2 * std::size_t{*it}] - query.x;
        const double dy = t.coords[2 * std::size_t{*it} + 1] - query.y;
        const double d2 = dx * dx + dy * dy;
        // Branch-free: which candidate wins is data-dependent and the
        // branchy form mispredicts often.
        const bool less = d2 < best;
        tie = (tie || d2 == best) && !less;
        best_id = less ? *it : best_id;
        best = less ? d2 : best;
      }
      // A tie's winner depends on the tree's visit order: ask the tree.
      if (!tie) {
        return {t.index[best_id],
                {t.coords[2 * std::size_t{best_id}],
                 t.coords[2 * std::size_t{best_id} + 1]},
                CorrespondenceRoute::kGrid};
      }
      route = CorrespondenceRoute::kTie;
    }
  }
  return tree_nearest(t, query, bound, route);
}

/// Correspondence-free alignment: finds g ∈ ISO⁺(2) minimizing the NN
/// mean-squared error of g(source) against the reference's target, matching
/// only particles of equal type. Requires a non-empty, finite source of the
/// reference's size with its type histogram, and valid options (at least
/// one restart and one iteration, a non-negative tolerance).
[[nodiscard]] IcpResult align_icp(std::span<const geom::Vec2> source,
                                  std::span<const sim::TypeId> source_types,
                                  const IcpReference& reference,
                                  const IcpOptions& options = {});

/// One-to-one same-type correspondence: returns a permutation π with
/// π[i] = index of the target particle matched to source particle i.
/// Greedy by ascending pair distance within each type (each source and
/// target particle used once). Types must have equal counts on both sides;
/// coordinates must be finite.
[[nodiscard]] std::vector<std::size_t> match_by_type(
    std::span<const geom::Vec2> source, std::span<const sim::TypeId> source_types,
    std::span<const geom::Vec2> target, std::span<const sim::TypeId> target_types);

}  // namespace sops::align
