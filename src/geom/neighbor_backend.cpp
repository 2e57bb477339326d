#include "geom/neighbor_backend.hpp"

#include <cmath>

#include "geom/delaunay.hpp"
#include "support/error.hpp"

namespace sops::geom {

// ------------------------------------------------------------- all-pairs

void AllPairsBackend::rebuild(PositionLanes points, double radius,
                              const support::Executor& /*executor*/) {
  support::expect(radius > 0.0, "AllPairsBackend: radius must be positive");
  points_ = points;
  radius_ = radius;
  scratch_.reserve(points.size());
}

std::span<const std::uint32_t> AllPairsBackend::neighbors(std::size_t i) {
  const double radius_sq = radius_ * radius_;
  scratch_.clear();
  for (std::size_t j = 0; j < points_.size(); ++j) {
    if (j == i) continue;
    if (dist_sq(points_[i], points_[j]) < radius_sq) {
      scratch_.push_back(static_cast<std::uint32_t>(j));
    }
  }
  return scratch_;
}

// ------------------------------------------------------------- cell grid

void CellGridBackend::rebuild(PositionLanes points, double radius,
                              const support::Executor& executor) {
  support::expect(std::isfinite(radius),
                  "CellGridBackend: cell grid needs a finite radius");
  grid_.rebuild(points, radius, executor);
  radius_ = radius;
}

std::span<const std::uint32_t> CellGridBackend::neighbors(std::size_t i) {
  scratch_.clear();
  grid_.for_each_neighbor(i, radius_, [&](std::size_t j) {
    scratch_.push_back(static_cast<std::uint32_t>(j));
  });
  return scratch_;
}

// -------------------------------------------------------------- Delaunay

void DelaunayBackend::rebuild(PositionLanes points, double radius,
                              const support::Executor& /*executor*/) {
  support::expect(radius > 0.0, "DelaunayBackend: radius must be positive");
  for (std::size_t i = 0; i < points.size(); ++i) {
    support::expect(std::isfinite(points.x[i]) && std::isfinite(points.y[i]),
                    "DelaunayBackend: point coordinates must be finite");
  }
  // The tessellation consumes interleaved points; materialize them once per
  // rebuild (the triangulation itself dwarfs this copy).
  interleave(points, points_aos_);
  const auto adjacency = delaunay_adjacency(points_aos_);
  const bool bounded = std::isfinite(radius);
  const double radius_sq = radius * radius;

  offsets_.assign(points.size() + 1, 0);
  indices_.clear();
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (const std::size_t j : adjacency[i]) {
      if (bounded && dist_sq(points[i], points[j]) >= radius_sq) continue;
      indices_.push_back(static_cast<std::uint32_t>(j));
    }
    offsets_[i + 1] = indices_.size();
  }
}

// ----------------------------------------------------------- closed type

namespace {

NeighborBackend::Variant make_variant(NeighborBackendKind kind) {
  switch (kind) {
    case NeighborBackendKind::kAllPairs:
      return AllPairsBackend{};
    case NeighborBackendKind::kCellGrid:
      return CellGridBackend{};
    case NeighborBackendKind::kDelaunay:
      return DelaunayBackend{};
  }
  throw PreconditionError("NeighborBackend: unknown NeighborBackendKind");
}

}  // namespace

NeighborBackend::NeighborBackend(NeighborBackendKind kind)
    : backend_(make_variant(kind)) {}

}  // namespace sops::geom
