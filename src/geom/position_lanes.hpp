// Structure-of-arrays position views and the gather scratch shared by the
// lane-structured pair kernels.
//
// The particle system stores positions as two parallel double lanes (x[],
// y[]); geometry code that operates on whole configurations takes a
// PositionLanes view instead of a span of Vec2. Consumers that genuinely
// need interleaved points (Delaunay, alignment, clustering) convert at the
// boundary with interleave()/ParticleSystem::positions_aos().
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "geom/vec2.hpp"

namespace sops::geom {

/// Read-only SoA view of n planar positions: two parallel double lanes of
/// equal length. Cheap to copy; does not own the storage.
struct PositionLanes {
  std::span<const double> x;
  std::span<const double> y;

  [[nodiscard]] std::size_t size() const noexcept { return x.size(); }
  [[nodiscard]] Vec2 operator[](std::size_t i) const noexcept {
    return {x[i], y[i]};
  }
};

/// Splits interleaved points into lane storage (resizing the outputs).
inline void deinterleave(std::span<const Vec2> points, std::vector<double>& x,
                         std::vector<double>& y) {
  const std::size_t n = points.size();
  x.resize(n);
  y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = points[i].x;
    y[i] = points[i].y;
  }
}

/// Re-interleaves a lane view into AoS storage (resizing `out`).
inline void interleave(PositionLanes lanes, std::vector<Vec2>& out) {
  const std::size_t n = lanes.size();
  out.resize(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = lanes[i];
}

/// Reusable per-task buffers of the pair-once chunk kernel: one cell's
/// candidate block (a half shell, or an all-pairs tile's suffix) gathered
/// into contiguous lanes — positions, a caller-defined tag lane (particle
/// types) and the candidates' running drift sums — so the kernel reads and
/// scatters sequential memory instead of scattered points. Double-Gaussian
/// rows also compact their survivors into the lanes just past the block,
/// with each survivor's position in the row in `slot`. `stripe_x`/
/// `stripe_y` hold the running sums of the cell-grid stripe the task runs.
/// One scratch per task — never shared across workers.
struct GatherScratch {
  std::vector<double> x;
  std::vector<double> y;
  std::vector<std::uint32_t> tag;
  std::vector<double> acc_x;
  std::vector<double> acc_y;
  std::vector<std::uint32_t> slot;
  std::vector<double> stripe_x;
  std::vector<double> stripe_y;
};

}  // namespace sops::geom
