// Observable tests: g(r) on lattices and gases, MSD on known motions,
// sorting/mixing indices, and Delaunay-limited force accumulation.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "rng/samplers.hpp"
#include "sim/forces.hpp"
#include "sim/observables.hpp"
#include "support/error.hpp"

namespace {

using sops::geom::Vec2;
using sops::sim::cross_type_neighbor_fraction;
using sops::sim::first_peak_height;
using sops::sim::mean_radius_by_type;
using sops::sim::mean_squared_displacement;
using sops::sim::radial_distribution;
using sops::sim::radius_of_gyration;
using sops::sim::TypeId;

std::vector<Vec2> square_lattice(std::size_t side, double spacing) {
  std::vector<Vec2> points;
  for (std::size_t i = 0; i < side; ++i) {
    for (std::size_t j = 0; j < side; ++j) {
      points.push_back({spacing * static_cast<double>(i),
                        spacing * static_cast<double>(j)});
    }
  }
  return points;
}

TEST(Rdf, LatticePeaksAtSpacing) {
  const auto points = square_lattice(8, 1.0);
  const auto rdf = radial_distribution(points, 3.0, 60);
  // Find the bin with maximal g; it must sit at r ≈ 1 (the lattice spacing).
  std::size_t best = 0;
  for (std::size_t b = 1; b < rdf.g.size(); ++b) {
    if (rdf.g[b] > rdf.g[best]) best = b;
  }
  EXPECT_NEAR(rdf.r[best], 1.0, 0.1);
  EXPECT_GT(first_peak_height(rdf), 2.0);  // sharp crystalline peak
}

TEST(Rdf, DepletedCoreBelowSpacing) {
  const auto points = square_lattice(8, 1.0);
  const auto rdf = radial_distribution(points, 3.0, 60);
  // No pairs below the lattice spacing: g ≈ 0 in the core.
  for (std::size_t b = 0; b < rdf.g.size(); ++b) {
    if (rdf.r[b] < 0.9) {
      EXPECT_NEAR(rdf.g[b], 0.0, 1e-12) << rdf.r[b];
    }
  }
}

TEST(Rdf, GasIsFlat) {
  // Uniform points in a large box: g ≈ 1 at intermediate r (away from the
  // core and window-edge effects).
  sops::rng::Xoshiro256 engine(3);
  std::vector<Vec2> points;
  for (int i = 0; i < 3000; ++i) {
    points.push_back({sops::rng::uniform(engine, 0.0, 60.0),
                      sops::rng::uniform(engine, 0.0, 60.0)});
  }
  const auto rdf = radial_distribution(points, 3.0, 30);
  for (std::size_t b = 5; b < 25; ++b) {
    EXPECT_NEAR(rdf.g[b], 1.0, 0.25) << rdf.r[b];
  }
}

TEST(Rdf, PreconditionsEnforced) {
  const std::vector<Vec2> one{{0, 0}};
  EXPECT_THROW((void)radial_distribution(one, 1.0), sops::PreconditionError);
  const std::vector<Vec2> two{{0, 0}, {1, 0}};
  EXPECT_THROW((void)radial_distribution(two, 0.0), sops::PreconditionError);
  EXPECT_THROW((void)radial_distribution(two, 1.0, 0), sops::PreconditionError);
}

TEST(Msd, BallisticMotionQuadratic) {
  // Every particle moves with unit velocity: MSD(t) = t².
  std::vector<std::vector<Vec2>> frames;
  for (int t = 0; t < 5; ++t) {
    frames.push_back({{static_cast<double>(t), 0.0},
                      {0.0, static_cast<double>(t)}});
  }
  const auto msd = mean_squared_displacement(frames);
  for (int t = 0; t < 5; ++t) {
    EXPECT_DOUBLE_EQ(msd[t], static_cast<double>(t) * t);
  }
}

TEST(Msd, StaticConfigurationIsZero) {
  const std::vector<std::vector<Vec2>> frames(4, {{1, 2}, {3, 4}});
  for (const double v : mean_squared_displacement(frames)) {
    EXPECT_DOUBLE_EQ(v, 0.0);
  }
}

TEST(Msd, DiffusionIsLinear) {
  sops::rng::Xoshiro256 engine(7);
  const std::size_t particles = 3000;
  const std::size_t steps = 20;
  std::vector<std::vector<Vec2>> frames(steps,
                                        std::vector<Vec2>(particles));
  for (std::size_t t = 1; t < steps; ++t) {
    for (std::size_t i = 0; i < particles; ++i) {
      frames[t][i] = frames[t - 1][i] + sops::rng::normal_vec2(engine, 0.1);
    }
  }
  const auto msd = mean_squared_displacement(frames);
  // MSD(t) ≈ 2·σ²·t = 0.02·t per 2-D step.
  EXPECT_NEAR(msd[10] / 10.0, 0.02, 0.003);
  EXPECT_NEAR(msd[19] / 19.0, 0.02, 0.003);
}

TEST(RadiusOfGyration, UnitRing) {
  std::vector<Vec2> points;
  for (int i = 0; i < 12; ++i) {
    const double a = 2.0 * std::numbers::pi * i / 12.0;
    points.push_back({std::cos(a), std::sin(a)});
  }
  EXPECT_NEAR(radius_of_gyration(points), 1.0, 1e-12);
}

TEST(CrossTypeFraction, FullySortedIsZero) {
  // Two well-separated same-type blobs.
  std::vector<Vec2> points{{0, 0}, {0.1, 0}, {10, 0}, {10.1, 0}};
  std::vector<TypeId> types{0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(cross_type_neighbor_fraction(points, types), 0.0);
}

TEST(CrossTypeFraction, AlternatingIsOne) {
  std::vector<Vec2> points{{0, 0}, {1, 0}, {2, 0}, {3, 0}};
  std::vector<TypeId> types{0, 1, 0, 1};
  EXPECT_DOUBLE_EQ(cross_type_neighbor_fraction(points, types), 1.0);
}

TEST(MeanRadiusByType, EnclosedGeometry) {
  // Type 0 at the center, type 1 on a ring of radius 3.
  std::vector<Vec2> points{{0.1, 0}, {-0.1, 0}};
  std::vector<TypeId> types{0, 0};
  for (int i = 0; i < 6; ++i) {
    const double a = 2.0 * std::numbers::pi * i / 6.0;
    points.push_back({3.0 * std::cos(a), 3.0 * std::sin(a)});
    types.push_back(1);
  }
  const auto radii = mean_radius_by_type(points, types, 2);
  EXPECT_LT(radii[0], 0.5);
  EXPECT_NEAR(radii[1], 3.0, 0.1);
}

TEST(DelaunayForces, OnlyTessellationNeighborsInteract) {
  // Collinear-ish diamond: particle 3 is far right; with Delaunay neighbors
  // only, forces on 0 come from its direct triangulation neighbors. Compare
  // against all-pairs to show the far interaction is present there but the
  // dynamics stay well-defined in both.
  using namespace sops::sim;
  InteractionModel model(ForceLawKind::kSpring, 1, PairParams{1.0, 2.0, 1, 1});
  ParticleSystem system({{0, 0}, {1, 1}, {1, -1}, {2, 0}, {30, 0}}, {0, 0, 0, 0, 0});

  const PairScalingTable table(model);
  std::vector<Vec2> delaunay;
  std::vector<Vec2> all_pairs;
  sops::geom::NeighborBackend tessellation(
      sops::geom::NeighborBackendKind::kDelaunay);
  sops::geom::NeighborBackend everyone(
      sops::geom::NeighborBackendKind::kAllPairs);
  accumulate_drift(system, table, kUnboundedRadius, delaunay, tessellation,
                   sops::support::serial_executor());
  accumulate_drift(system, table, kUnboundedRadius, all_pairs, everyone,
                   sops::support::serial_executor());
  // Particle 0 is not a Delaunay neighbor of particle 4 (separated by the
  // diamond) but interacts with it under all-pairs: drifts must differ.
  EXPECT_NE(delaunay[0].x, all_pairs[0].x);
  // Everything finite and nonzero where expected.
  for (const Vec2 d : delaunay) {
    EXPECT_TRUE(std::isfinite(d.x) && std::isfinite(d.y));
  }
}

TEST(DelaunayForces, CutoffPrunesLongTessellationEdges) {
  using namespace sops::sim;
  InteractionModel model(ForceLawKind::kSpring, 1, PairParams{1.0, 2.0, 1, 1});
  // Two distant pairs: the tessellation connects across the gap, a finite
  // cutoff removes the bridge.
  ParticleSystem system({{0, 0}, {0, 1}, {50, 0}, {50, 1}}, {0, 0, 0, 0});
  const PairScalingTable table(model);
  std::vector<Vec2> bounded;
  std::vector<Vec2> unbounded;
  // One backend for both radii: each call rebuilds it.
  sops::geom::NeighborBackend backend(sops::geom::NeighborBackendKind::kDelaunay);
  accumulate_drift(system, table, 5.0, bounded, backend,
                   sops::support::serial_executor());
  accumulate_drift(system, table, kUnboundedRadius, unbounded, backend,
                   sops::support::serial_executor());
  // Unbounded: particle 0 feels the distant pair (attraction, +x).
  EXPECT_GT(unbounded[0].x, 0.1);
  // Bounded at 5: only the local partner matters; no x-pull.
  EXPECT_NEAR(bounded[0].x, 0.0, 1e-12);
}

TEST(DelaunayForces, MatchesAllPairsOnATriangle) {
  using namespace sops::sim;
  InteractionModel model(ForceLawKind::kSpring, 1, PairParams{1.0, 2.0, 1, 1});
  ParticleSystem system({{0, 0}, {1, 0}, {0.5, 1.0}}, {0, 0, 0});
  const PairScalingTable table(model);
  std::vector<Vec2> delaunay;
  std::vector<Vec2> all_pairs;
  sops::geom::NeighborBackend tessellation(
      sops::geom::NeighborBackendKind::kDelaunay);
  sops::geom::NeighborBackend everyone(
      sops::geom::NeighborBackendKind::kAllPairs);
  accumulate_drift(system, table, kUnboundedRadius, delaunay, tessellation,
                   sops::support::serial_executor());
  accumulate_drift(system, table, kUnboundedRadius, all_pairs, everyone,
                   sops::support::serial_executor());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(delaunay[i].x, all_pairs[i].x, 1e-12);
    EXPECT_NEAR(delaunay[i].y, all_pairs[i].y, 1e-12);
  }
}

}  // namespace
