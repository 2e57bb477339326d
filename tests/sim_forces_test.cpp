// Drift-accumulation tests: analytic two-body cases, action–reaction
// symmetry, cut-off semantics, and agreement between neighbor strategies.
#include <gtest/gtest.h>

#include <cmath>

#include "sim/forces.hpp"
#include "rng/samplers.hpp"
#include "sim/generators.hpp"
#include "support/error.hpp"
#include "support/executor.hpp"

namespace {

using sops::geom::NeighborBackend;
using sops::geom::NeighborBackendKind;
using sops::geom::Vec2;
using sops::sim::accumulate_drift;
using sops::sim::ForceLawKind;
using sops::sim::InteractionModel;
using sops::sim::kUnboundedRadius;
using sops::sim::NeighborMode;
using sops::sim::PairParams;
using sops::sim::PairScalingTable;
using sops::sim::ParticleSystem;
using sops::sim::total_drift_norm;
using sops::support::serial_executor;

InteractionModel spring_model(double k, double r, std::size_t types = 1) {
  return InteractionModel(ForceLawKind::kSpring, types, PairParams{k, r, 1, 1});
}

TEST(AccumulateDrift, TwoBodySpringAnalytic) {
  // Particles at distance x on the x-axis: drift on particle 0 is
  // −k(1 − r/x)·(z0 − z1) = −k(x − r) in the +x direction when x < r.
  const double k = 2.0;
  const double r = 3.0;
  const double x = 2.0;
  ParticleSystem system({{0.0, 0.0}, {x, 0.0}}, {0, 0});
  std::vector<Vec2> drift;
  NeighborBackend backend(NeighborBackendKind::kAllPairs);
  accumulate_drift(system, PairScalingTable(spring_model(k, r)),
                   kUnboundedRadius, drift, backend, serial_executor());

  const double expected = -k * (1.0 - r / x) * (0.0 - x);  // on particle 0
  EXPECT_NEAR(drift[0].x, expected, 1e-12);
  EXPECT_NEAR(drift[0].y, 0.0, 1e-12);
  // x < r ⇒ repulsion: particle 0 pushed toward −x.
  EXPECT_LT(drift[0].x, 0.0);
}

TEST(AccumulateDrift, TwoBodyAttractionBeyondPreferredDistance) {
  ParticleSystem system({{0.0, 0.0}, {5.0, 0.0}}, {0, 0});
  std::vector<Vec2> drift;
  NeighborBackend backend(NeighborBackendKind::kAllPairs);
  accumulate_drift(system, PairScalingTable(spring_model(1.0, 2.0)),
                   kUnboundedRadius, drift, backend, serial_executor());
  EXPECT_GT(drift[0].x, 0.0);  // pulled toward the neighbor
  EXPECT_LT(drift[1].x, 0.0);
}

TEST(AccumulateDrift, ActionReactionWithSymmetricMatrices) {
  // Symmetric parameters ⇒ pair drift contributions are equal and opposite,
  // so the total drift sums to zero for any configuration.
  sops::rng::Xoshiro256 engine(5);
  sops::sim::RandomModelRanges ranges;
  ranges.k_min = 0.5;
  ranges.k_max = 2.0;
  const InteractionModel model = sops::sim::random_spring_model(3, ranges, engine);

  std::vector<Vec2> positions;
  std::vector<sops::sim::TypeId> types;
  for (int i = 0; i < 30; ++i) {
    positions.push_back(sops::rng::uniform_disc(engine, 5.0));
    types.push_back(static_cast<sops::sim::TypeId>(i % 3));
  }
  ParticleSystem system(positions, types);
  std::vector<Vec2> drift;
  NeighborBackend backend(NeighborBackendKind::kAllPairs);
  accumulate_drift(system, PairScalingTable(model), kUnboundedRadius, drift,
                   backend, serial_executor());

  Vec2 total{};
  for (const Vec2 d : drift) total += d;
  EXPECT_NEAR(total.x, 0.0, 1e-9);
  EXPECT_NEAR(total.y, 0.0, 1e-9);
}

TEST(AccumulateDrift, CutoffExcludesFarPairs) {
  ParticleSystem system({{0.0, 0.0}, {10.0, 0.0}}, {0, 0});
  std::vector<Vec2> drift;
  NeighborBackend backend(NeighborBackendKind::kAllPairs);
  accumulate_drift(system, PairScalingTable(spring_model(1.0, 2.0)), 5.0,
                   drift, backend, serial_executor());
  EXPECT_DOUBLE_EQ(drift[0].x, 0.0);
  EXPECT_DOUBLE_EQ(drift[1].x, 0.0);
}

TEST(AccumulateDrift, CutoffIsStrict) {
  ParticleSystem system({{0.0, 0.0}, {5.0, 0.0}}, {0, 0});
  const PairScalingTable table(spring_model(1.0, 2.0));
  std::vector<Vec2> drift;
  NeighborBackend backend(NeighborBackendKind::kAllPairs);
  accumulate_drift(system, table, 5.0, drift, backend, serial_executor());
  EXPECT_DOUBLE_EQ(drift[0].x, 0.0);  // exactly at r_c: excluded
  accumulate_drift(system, table, 5.0 + 1e-9, drift, backend,
                   serial_executor());
  EXPECT_NE(drift[0].x, 0.0);
}

TEST(AccumulateDrift, CoincidentParticlesContributeNothing) {
  ParticleSystem system({{1.0, 1.0}, {1.0, 1.0}}, {0, 0});
  std::vector<Vec2> drift;
  NeighborBackend backend(NeighborBackendKind::kAllPairs);
  accumulate_drift(system, PairScalingTable(spring_model(1.0, 2.0)),
                   kUnboundedRadius, drift, backend, serial_executor());
  EXPECT_DOUBLE_EQ(drift[0].x, 0.0);
  EXPECT_DOUBLE_EQ(drift[0].y, 0.0);
}

TEST(AccumulateDrift, TypeDependentInteractions) {
  InteractionModel model(ForceLawKind::kSpring, 2, PairParams{1.0, 1.0, 1, 1});
  model.set_k(0, 1, 0.0);  // cross-type interactions disabled
  ParticleSystem system({{0.0, 0.0}, {2.0, 0.0}}, {0, 1});
  std::vector<Vec2> drift;
  NeighborBackend backend(NeighborBackendKind::kAllPairs);
  accumulate_drift(system, PairScalingTable(model), kUnboundedRadius, drift,
                   backend, serial_executor());
  EXPECT_DOUBLE_EQ(drift[0].x, 0.0);
  EXPECT_DOUBLE_EQ(drift[1].x, 0.0);
}

class StrategyAgreement : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StrategyAgreement, GridMatchesAllPairsExactly) {
  const std::size_t n = GetParam();
  sops::rng::Xoshiro256 engine(n);
  std::vector<Vec2> positions;
  std::vector<sops::sim::TypeId> types;
  for (std::size_t i = 0; i < n; ++i) {
    positions.push_back(sops::rng::uniform_disc(engine, 8.0));
    types.push_back(static_cast<sops::sim::TypeId>(i % 4));
  }
  sops::sim::RandomModelRanges ranges;
  const InteractionModel model = sops::sim::random_spring_model(4, ranges, engine);
  ParticleSystem system(positions, types);

  const PairScalingTable table(model);
  const double cutoff = 3.0;
  std::vector<Vec2> brute;
  std::vector<Vec2> grid;
  NeighborBackend all_pairs(NeighborBackendKind::kAllPairs);
  NeighborBackend cell_grid(NeighborBackendKind::kCellGrid);
  accumulate_drift(system, table, cutoff, brute, all_pairs, serial_executor());
  accumulate_drift(system, table, cutoff, grid, cell_grid, serial_executor());

  for (std::size_t i = 0; i < n; ++i) {
    // Same pair set; only summation order may differ.
    EXPECT_NEAR(brute[i].x, grid[i].x, 1e-12) << i;
    EXPECT_NEAR(brute[i].y, grid[i].y, 1e-12) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, StrategyAgreement,
                         ::testing::Values(2, 10, 63, 64, 150, 300));

TEST(AccumulateDrift, UnboundedRadiusReachesFarPairs) {
  ParticleSystem system({{0.0, 0.0}, {100.0, 0.0}}, {0, 0});
  std::vector<Vec2> drift;
  NeighborBackend backend(NeighborBackendKind::kAllPairs);
  accumulate_drift(system, PairScalingTable(spring_model(1.0, 2.0)),
                   kUnboundedRadius, drift, backend, serial_executor());
  EXPECT_GT(drift[0].x, 0.0);  // long-range attraction reaches
}

TEST(ResolveNeighborMode, ExhaustiveWithAutoRules) {
  using sops::sim::resolve_neighbor_mode;
  // kAuto: cell grid for finite r_c at n ≥ 64, all-pairs below that or
  // for an unbounded r_c; concrete modes pass through.
  EXPECT_EQ(resolve_neighbor_mode(NeighborMode::kAuto, 1024, 3.0),
            NeighborMode::kCellGrid);
  EXPECT_EQ(resolve_neighbor_mode(NeighborMode::kAuto, 64, 3.0),
            NeighborMode::kCellGrid);
  EXPECT_EQ(resolve_neighbor_mode(NeighborMode::kAuto, 63, 3.0),
            NeighborMode::kAllPairs);
  EXPECT_EQ(resolve_neighbor_mode(NeighborMode::kAuto, 1024, kUnboundedRadius),
            NeighborMode::kAllPairs);
  for (const NeighborMode mode : {NeighborMode::kAllPairs,
                                  NeighborMode::kCellGrid,
                                  NeighborMode::kDelaunay}) {
    EXPECT_EQ(resolve_neighbor_mode(mode, 1024, 3.0), mode);
  }
  // A value outside the enum fails loudly instead of riding a default
  // branch into some backend.
  EXPECT_THROW(
      (void)resolve_neighbor_mode(static_cast<NeighborMode>(99), 64, 3.0),
      sops::PreconditionError);
  EXPECT_THROW((void)sops::sim::neighbor_backend_kind(NeighborMode::kAuto),
               sops::PreconditionError);
}

TEST(AccumulateDrift, GridWithUnboundedRadiusThrows) {
  ParticleSystem system({{0.0, 0.0}}, {0});
  std::vector<Vec2> drift;
  NeighborBackend backend(NeighborBackendKind::kCellGrid);
  EXPECT_THROW(accumulate_drift(system, PairScalingTable(spring_model(1.0, 1.0)),
                                kUnboundedRadius, drift, backend,
                                serial_executor()),
               sops::PreconditionError);
}

TEST(AccumulateDrift, TypeOutsideModelThrows) {
  ParticleSystem system({{0.0, 0.0}}, {5});
  std::vector<Vec2> drift;
  NeighborBackend backend(NeighborBackendKind::kAllPairs);
  EXPECT_THROW(accumulate_drift(system, PairScalingTable(spring_model(1.0, 1.0)),
                                1.0, drift, backend, serial_executor()),
               sops::PreconditionError);
}

TEST(TotalDriftNorm, SumsL2Norms) {
  const std::vector<Vec2> drift{{3.0, 4.0}, {0.0, 1.0}};
  EXPECT_DOUBLE_EQ(total_drift_norm(drift), 6.0);
}

TEST(TotalDriftNorm, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(total_drift_norm(std::vector<Vec2>{}), 0.0);
}

}  // namespace
