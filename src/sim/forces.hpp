// Pairwise force accumulation — the right-hand side of the paper's
// equation of motion (Eq. 6) without the noise term:
//
//   drift_i = Σ_{j ∈ N_rc(i)}  −F_αβ(‖Δz_ij‖) · Δz_ij,   Δz_ij = z_i − z_j.
//
// Interchangeable neighbor strategies are provided; all must produce the
// same drifts for the same pair set, up to summation order (tested):
// all-pairs O(n²), a uniform cell grid that is O(n) per step for bounded
// density, and the Delaunay-tessellation extension. There is one entry point: it sums
// through a persistent geom::NeighborBackend that the caller keeps across
// steps (SimulationWorkspace turns a NeighborMode into one), so no step
// constructs an index.
#pragma once

#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "geom/neighbor_backend.hpp"
#include "geom/vec2.hpp"
#include "sim/force_law.hpp"
#include "sim/particle_system.hpp"

namespace sops::sim {

/// Neighbor-search strategy selection.
enum class NeighborMode {
  kAuto,       ///< grid for finite r_c and n ≥ 64, all-pairs otherwise
  kAllPairs,   ///< O(n²) index triangle; required for r_c = ∞
  kCellGrid,   ///< uniform cell grid; requires finite r_c
  /// Cell-like tessellation (extension): interactions only between direct
  /// Delaunay neighbors, the neighbor model of the paper's base reference
  /// [10] that §4.1 deliberately drops. A finite r_c additionally prunes
  /// tessellation edges longer than the cut-off.
  kDelaunay,
};

/// The value used for an unbounded interaction radius (r_c = ∞).
inline constexpr double kUnboundedRadius = std::numeric_limits<double>::infinity();

/// Dense per-type-pair coefficient table, hoisted out of the pair loop. The
/// matrix accessors re-derive triangle indices and bounds-check on every
/// call, which dominates the per-pair cost for cheap force laws. Build once
/// per run (SimulationWorkspace caches one) and reuse across steps.
///
/// Storage is one lane per coefficient of PairCoefficients (k, r, c, a, b),
/// dense over (a, b) at a·types + b — the layout the batched kernels gather
/// candidate coefficients from by type id (see pair_base / the *_data
/// accessors). The kernels evaluate force_scaling_of on these lanes.
class PairScalingTable {
 public:
  explicit PairScalingTable(const InteractionModel& model)
      : kind_(model.kind()),
        types_(model.types()),
        k_(types_ * types_),
        r_(types_ * types_),
        c_(types_ * types_),
        a_(types_ * types_),
        b_(types_ * types_) {
    for (std::size_t a = 0; a < types_; ++a) {
      for (std::size_t b = 0; b < types_; ++b) {
        const PairCoefficients co = pair_coefficients(model.pair(a, b));
        const std::size_t e = a * types_ + b;
        k_[e] = co.k;
        r_[e] = co.r;
        c_[e] = co.c;
        a_[e] = co.a;
        b_[e] = co.b;
      }
    }
  }

  /// Number of particle types the table covers.
  [[nodiscard]] std::size_t types() const noexcept { return types_; }

  /// The force-law family every entry evaluates.
  [[nodiscard]] ForceLawKind kind() const noexcept { return kind_; }

  /// Base entry index of row type a: entry(a, b) = pair_base(a) + b. The
  /// kernels hoist this per particle and gather per-candidate coefficients
  /// from the lane pointers below.
  [[nodiscard]] std::size_t pair_base(TypeId a) const noexcept {
    return static_cast<std::size_t>(a) * types_;
  }

  [[nodiscard]] const double* k_data() const noexcept { return k_.data(); }
  [[nodiscard]] const double* r_data() const noexcept { return r_.data(); }
  [[nodiscard]] const double* c_data() const noexcept { return c_.data(); }
  [[nodiscard]] const double* a_data() const noexcept { return a_.data(); }
  [[nodiscard]] const double* b_data() const noexcept { return b_.data(); }

 private:
  ForceLawKind kind_;
  std::size_t types_;
  std::vector<double> k_;  // coefficient lanes, dense over a·types + b
  std::vector<double> r_;
  std::vector<double> c_;
  std::vector<double> a_;
  std::vector<double> b_;
};

/// Resolves kAuto to the concrete strategy for a collective of `n`
/// particles and cut-off `cutoff_radius`; concrete modes pass through.
/// Never returns kAuto; throws PreconditionError on a mode value outside
/// the enum instead of silently passing it through.
[[nodiscard]] NeighborMode resolve_neighbor_mode(NeighborMode mode,
                                                 std::size_t n,
                                                 double cutoff_radius);

/// The backend kind implementing a resolved (non-kAuto) neighbor mode.
[[nodiscard]] geom::NeighborBackendKind neighbor_backend_kind(
    NeighborMode resolved_mode);

/// Computes drift_i for every particle into `out` (resized to n): rebuilds
/// `backend` for the current positions on `executor`, then sums pair drifts
/// in the backend's enumeration order. With a caller-cached scaling table
/// and a warm backend, a call allocates nothing.
///
/// Pairs at exactly zero distance are skipped: the force direction is
/// undefined there, and with continuous noise the event has probability
/// zero; skipping (rather than throwing) keeps hand-constructed degenerate
/// configurations usable in tests.
///
/// All-pairs and the cell grid compute each unordered pair once and add
/// the negated term to the partner: all-pairs over the index triangle
/// (row i against j > i) in fixed row tiles, the grid over half shells in
/// fixed column stripes; neither partition depends on the width
/// (sim/drift_kernel.hpp). Delaunay splits the particle loop equally over
/// the executor's runners (support::parallel_for): each drift row is a
/// pure gather in its serial neighbor-enumeration order, so the split is
/// scheduling only. Either way the work is dispatched on `executor`'s
/// persistent runners, and the result is bitwise-identical for any
/// executor width.
void accumulate_drift(const ParticleSystem& system, const PairScalingTable& table,
                      double cutoff_radius, std::vector<geom::Vec2>& out,
                      geom::NeighborBackend& backend,
                      const support::Executor& executor);

/// Sum over particles of ‖drift_i‖₂ — the residual-force statistic the
/// paper's equilibrium criterion thresholds (§4.1).
[[nodiscard]] double total_drift_norm(std::span<const geom::Vec2> drift);

}  // namespace sops::sim
