#include "geom/rigid_transform.hpp"

#include <cmath>
#include <ostream>

#include "support/error.hpp"

namespace sops::geom {

std::ostream& operator<<(std::ostream& os, Vec2 v) {
  return os << '(' << v.x << ", " << v.y << ')';
}

std::vector<Vec2> RigidTransform2::apply(std::span<const Vec2> points) const {
  std::vector<Vec2> out;
  out.reserve(points.size());
  for (const Vec2 p : points) out.push_back(apply(p));
  return out;
}

bool all_finite(std::span<const Vec2> points) noexcept {
  for (const Vec2 p : points) {
    if (!std::isfinite(p.x) || !std::isfinite(p.y)) return false;
  }
  return true;
}

Vec2 centroid(std::span<const Vec2> points) {
  support::expect(!points.empty(), "centroid: empty point set");
  Vec2 sum{};
  for (const Vec2 p : points) sum += p;
  return sum / static_cast<double>(points.size());
}

std::vector<Vec2> centered(std::span<const Vec2> points) {
  const Vec2 c = centroid(points);
  std::vector<Vec2> out;
  out.reserve(points.size());
  for (const Vec2 p : points) out.push_back(p - c);
  return out;
}

namespace {

// The Procrustes angle of the pairs (source_i − source_c, target_i −
// target_c), centered on the fly so no centered copy is allocated.
double centered_rotation(std::span<const Vec2> source, Vec2 source_c,
                         std::span<const Vec2> target, Vec2 target_c) {
  double cross_sum = 0.0;
  double dot_sum = 0.0;
  for (std::size_t i = 0; i < source.size(); ++i) {
    const Vec2 s = source[i] - source_c;
    const Vec2 t = target[i] - target_c;
    cross_sum += cross(s, t);
    dot_sum += dot(s, t);
  }
  if (cross_sum == 0.0 && dot_sum == 0.0) return 0.0;
  return std::atan2(cross_sum, dot_sum);
}

}  // namespace

double optimal_rotation(std::span<const Vec2> source,
                        std::span<const Vec2> target) {
  support::expect(source.size() == target.size(),
                  "optimal_rotation: size mismatch");
  // p − (0, 0) is p exactly, so this is the plain sum over the pairs.
  return centered_rotation(source, {}, target, {});
}

RigidTransform2 fit_rigid(std::span<const Vec2> source,
                          std::span<const Vec2> target) {
  support::expect(source.size() == target.size() && !source.empty(),
                  "fit_rigid: size mismatch or empty input");
  const Vec2 source_c = centroid(source);
  const Vec2 target_c = centroid(target);
  const double angle = centered_rotation(source, source_c, target, target_c);
  // g(p) = R(p − source_c) + target_c  ⇒  translation = target_c − R·source_c.
  return {angle, target_c - rotated(source_c, angle)};
}

double mean_squared_error(std::span<const Vec2> a, std::span<const Vec2> b) {
  support::expect(a.size() == b.size() && !a.empty(),
                  "mean_squared_error: size mismatch or empty input");
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += dist_sq(a[i], b[i]);
  return sum / static_cast<double>(a.size());
}

}  // namespace sops::geom
