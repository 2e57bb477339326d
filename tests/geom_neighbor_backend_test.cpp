// The closed neighbor-backend type: every NeighborBackendKind constructs
// the matching alternative, and its neighbors(i) is exactly the brute-force
// set within the radius (Delaunay: brute force ∩ tessellation edges) — the
// contract the engine's pair counts and the generic query path rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "geom/delaunay.hpp"
#include "geom/neighbor_backend.hpp"
#include "rng/samplers.hpp"
#include "support/error.hpp"
#include "support/executor.hpp"

namespace {

using sops::geom::NeighborBackend;
using sops::geom::NeighborBackendKind;
using sops::geom::Vec2;

constexpr NeighborBackendKind kAllKinds[] = {NeighborBackendKind::kAllPairs,
                                             NeighborBackendKind::kCellGrid,
                                             NeighborBackendKind::kDelaunay};

std::vector<Vec2> random_points(std::size_t n, double disc_radius,
                                std::uint64_t seed) {
  sops::rng::Xoshiro256 engine(seed);
  std::vector<Vec2> points;
  for (std::size_t i = 0; i < n; ++i) {
    points.push_back(sops::rng::uniform_disc(engine, disc_radius));
  }
  return points;
}

TEST(NeighborBackend, KindRoundTripsThroughTheVariant) {
  for (const NeighborBackendKind kind : kAllKinds) {
    const NeighborBackend backend(kind);
    EXPECT_EQ(backend.kind(), kind);
    EXPECT_EQ(backend.size(), 0u);
  }
  EXPECT_THROW(NeighborBackend(static_cast<NeighborBackendKind>(99)),
               sops::PreconditionError);
}

TEST(NeighborBackend, NeighborsMatchBruteForceForEveryKind) {
  const double radius = 2.0;
  const std::vector<Vec2> points = random_points(150, 9.0, 41);
  std::vector<double> xs;
  std::vector<double> ys;
  sops::geom::deinterleave(points, xs, ys);
  const auto adjacency = sops::geom::delaunay_adjacency(points);
  sops::support::TaskPool pool(3);

  for (const NeighborBackendKind kind : kAllKinds) {
    for (const sops::support::Executor* executor :
         {&sops::support::serial_executor(), &pool.executor()}) {
      NeighborBackend backend(kind);
      backend.rebuild({xs, ys}, radius, *executor);
      ASSERT_EQ(backend.size(), points.size());
      for (std::size_t i = 0; i < points.size(); ++i) {
        std::set<std::size_t> expected;
        for (std::size_t j = 0; j < points.size(); ++j) {
          if (j != i && dist_sq(points[i], points[j]) < radius * radius) {
            expected.insert(j);
          }
        }
        if (kind == NeighborBackendKind::kDelaunay) {
          std::set<std::size_t> edges(adjacency[i].begin(), adjacency[i].end());
          std::erase_if(expected,
                        [&](std::size_t j) { return edges.count(j) == 0; });
        }
        const auto listed = backend.neighbors(i);
        const std::set<std::size_t> actual(listed.begin(), listed.end());
        EXPECT_EQ(actual.size(), listed.size())
            << "duplicate, kind " << static_cast<int>(kind) << " i " << i;
        EXPECT_EQ(actual, expected)
            << "kind " << static_cast<int>(kind) << " i " << i;
      }
    }
  }
}

TEST(NeighborBackend, DelaunayRejectsNonFiniteCoordinates) {
  // The tessellation would silently drop such a point, leaving its drift
  // zero; the backend names the problem instead.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    std::vector<Vec2> points = random_points(20, 4.0, 7);
    points[11].y = bad;
    std::vector<double> xs;
    std::vector<double> ys;
    sops::geom::deinterleave(points, xs, ys);
    NeighborBackend backend(NeighborBackendKind::kDelaunay);
    EXPECT_THROW(backend.rebuild({xs, ys}, 3.0), sops::PreconditionError)
        << bad;
  }
}

}  // namespace
