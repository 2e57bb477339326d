// Direct isometries of the plane (elements of ISO⁺(2)): rotation followed
// by translation. These are exactly the shape-invariant motions the paper
// factors out of particle configurations (together with same-type
// permutations, handled in sops_align).
#pragma once

#include <span>
#include <vector>

#include "geom/vec2.hpp"

namespace sops::geom {

/// A direct isometry p ↦ R(angle)·p + translation.
struct RigidTransform2 {
  double angle = 0.0;  ///< counterclockwise rotation in radians
  Vec2 translation{};

  /// Applies the transform to a point.
  [[nodiscard]] Vec2 apply(Vec2 p) const noexcept {
    return rotated(p, angle) + translation;
  }

  /// Applies the transform to every point of a configuration.
  [[nodiscard]] std::vector<Vec2> apply(std::span<const Vec2> points) const;

  /// The inverse isometry.
  [[nodiscard]] RigidTransform2 inverse() const noexcept {
    return {-angle, rotated(-translation, -angle)};
  }

  /// Composition: (a ∘ b)(p) = a(b(p)).
  [[nodiscard]] friend RigidTransform2 compose(const RigidTransform2& a,
                                               const RigidTransform2& b) noexcept {
    return {a.angle + b.angle, rotated(b.translation, a.angle) + a.translation};
  }

  /// The identity isometry.
  [[nodiscard]] static constexpr RigidTransform2 identity() noexcept { return {}; }
};

/// True when no coordinate is NaN or infinite.
[[nodiscard]] bool all_finite(std::span<const Vec2> points) noexcept;

/// Centroid (mean) of a non-empty point set.
[[nodiscard]] Vec2 centroid(std::span<const Vec2> points);

/// Translates the configuration so its centroid is at the origin.
[[nodiscard]] std::vector<Vec2> centered(std::span<const Vec2> points);

/// Closed-form 2-D Procrustes rotation: the angle θ minimizing
/// Σ_i ‖R(θ)·source_i − target_i‖² over rotations about the origin.
///
/// Both configurations must have equal size and should already be centered;
/// the optimum is θ = atan2(Σ cross(s_i, t_i), Σ dot(s_i, t_i)).
/// Degenerate inputs (all points at the origin) yield θ = 0.
[[nodiscard]] double optimal_rotation(std::span<const Vec2> source,
                                      std::span<const Vec2> target);

/// Full rigid fit: isometry g minimizing Σ_i ‖g(source_i) − target_i‖².
/// Works for un-centered inputs (solves rotation about the centroids, then
/// the residual translation).
[[nodiscard]] RigidTransform2 fit_rigid(std::span<const Vec2> source,
                                        std::span<const Vec2> target);

/// Mean squared Euclidean distance between paired points.
[[nodiscard]] double mean_squared_error(std::span<const Vec2> a,
                                        std::span<const Vec2> b);

}  // namespace sops::geom
