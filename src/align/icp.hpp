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
#include <span>
#include <vector>

#include "geom/rigid_transform.hpp"
#include "sim/particle_system.hpp"

namespace sops::align {

/// ICP options.
struct IcpOptions {
  std::size_t max_iterations = 50;
  double convergence_tolerance = 1e-9;  ///< stop when MSE improves less
  std::size_t rotation_restarts = 8;    ///< initial angles spread over [0, 2π)
};

/// Result of aligning a source configuration onto a target.
struct IcpResult {
  geom::RigidTransform2 transform;   ///< apply to source to match target
  double mean_squared_error = 0.0;   ///< final NN MSE in the plane
  std::size_t iterations = 0;        ///< iterations of the winning restart
};

/// Correspondence-free alignment: finds g ∈ ISO⁺(2) minimizing the NN
/// mean-squared error of g(source) against target, matching only particles
/// of equal type. Requires both configurations non-empty and finite, with
/// identical type histograms (over the max type id present).
[[nodiscard]] IcpResult align_icp(std::span<const geom::Vec2> source,
                                  std::span<const sim::TypeId> source_types,
                                  std::span<const geom::Vec2> target,
                                  std::span<const sim::TypeId> target_types,
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
