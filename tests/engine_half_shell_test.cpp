// The cell-grid drift computes each unordered pair once (Newton's third
// law) over half shells in fixed column stripes, and the all-pairs drift
// over the index triangle in fixed row tiles. These tests pin both orders
// against plain scalar references that walk them without the grid or the
// kernels (half_shell_reference.hpp): bitwise, under the scalar and the
// selected vector kernels, at every executor width tested. The cell-grid
// geometries reach every branch of the walk — one cell, one column, a
// stripe's boundary column, stripes separated by empty columns, and the
// grid's sparse-box (sorted-key) lookup as well as its rank-array lookup;
// the all-pairs sizes straddle one and two tile boundaries. Named engine_*
// so the TSan and scalar-pin CI steps run it.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "geom/neighbor_backend.hpp"
#include "half_shell_reference.hpp"
#include "rng/samplers.hpp"
#include "sim/drift_kernel.hpp"
#include "sim/forces.hpp"
#include "support/executor.hpp"
#include "support/simd.hpp"

namespace {

using sops::geom::Vec2;
using sops::sim::ForceLawKind;
using sops::sim::InteractionModel;
using sops::sim::PairParams;
using sops::sim::PairScalingTable;
using sops::sim::ParticleSystem;
using sops::sim::TypeId;

constexpr auto kCellGrid = sops::geom::NeighborBackendKind::kCellGrid;
constexpr auto kAllPairs = sops::geom::NeighborBackendKind::kAllPairs;
constexpr std::size_t kTile = sops::sim::kAllPairsTileRows;
constexpr double kColumns = static_cast<double>(sops::sim::kDriftStripeColumns);

class SimdPolicyGuard {
 public:
  explicit SimdPolicyGuard(sops::support::SimdPolicy policy)
      : saved_(sops::support::simd_policy()) {
    sops::support::set_simd_policy(policy);
  }
  ~SimdPolicyGuard() { sops::support::set_simd_policy(saved_); }
  SimdPolicyGuard(const SimdPolicyGuard&) = delete;
  SimdPolicyGuard& operator=(const SimdPolicyGuard&) = delete;

 private:
  sops::support::SimdPolicy saved_;
};

std::vector<Vec2> engine_drift(
    const ParticleSystem& system, const PairScalingTable& table, double cutoff,
    std::size_t width, sops::geom::NeighborBackendKind kind = kCellGrid) {
  sops::geom::NeighborBackend backend(kind);
  sops::support::TaskPool pool(width);
  std::vector<Vec2> out;
  sops::sim::accumulate_drift(system, table, cutoff, out, backend,
                              pool.executor());
  return out;
}

// `n` points uniform in the box [x0, x0 + w) × [y0, y0 + h), appended.
void add_box(std::vector<Vec2>& points, sops::rng::Xoshiro256& engine,
             std::size_t n, double x0, double y0, double w, double h) {
  for (std::size_t i = 0; i < n; ++i) {
    points.push_back({x0 + sops::rng::uniform(engine, 0.0, w),
                      y0 + sops::rng::uniform(engine, 0.0, h)});
  }
}

struct Geometry {
  std::string name;
  std::vector<Vec2> points;
};

// Cut-off 1 throughout, so a cell is a unit square and column x holds
// the points with floor(p.x) = x.
std::vector<Geometry> geometries() {
  sops::rng::Xoshiro256 engine(0x5AE11);
  std::vector<Geometry> out;
  Geometry one_cell{"one cell", {}};
  add_box(one_cell.points, engine, 23, 3.05, -2.95, 0.9, 0.9);
  out.push_back(std::move(one_cell));

  Geometry one_column{"one column", {}};
  add_box(one_column.points, engine, 60, -1.0, -6.0, 1.0, 12.0);
  out.push_back(std::move(one_column));

  // Dense on both sides of the first stripe boundary (columns
  // kColumns − 1 and kColumns), with points exactly on the boundary line.
  Geometry boundary{"stripe boundary column", {}};
  add_box(boundary.points, engine, 40, 0.0, 0.0, 1.0, 3.0);
  add_box(boundary.points, engine, 80, kColumns - 1.0, 0.0, 2.0, 3.0);
  for (int k = 0; k < 6; ++k) {
    boundary.points.push_back({kColumns, 0.5 * k});
    boundary.points.push_back({kColumns - 1e-12, 0.5 * k + 0.25});
  }
  out.push_back(std::move(boundary));

  // Three clusters, several stripes apart, with empty columns between.
  Geometry gaps{"stripes with empty columns", {}};
  add_box(gaps.points, engine, 50, 0.0, 0.0, 2.5, 3.0);
  add_box(gaps.points, engine, 50, 3.0 * kColumns - 0.5, 1.0, 3.0, 2.0);
  add_box(gaps.points, engine, 30, 7.0 * kColumns + 2.0, -1.0, 1.5, 2.0);
  out.push_back(std::move(gaps));

  // A dense disc: the grid ranks cells through its bounding-box array.
  Geometry disc{"dense disc", {}};
  for (std::size_t i = 0; i < 400; ++i) {
    disc.points.push_back(sops::rng::uniform_disc(engine, 9.0));
  }
  out.push_back(std::move(disc));

  // Two clusters 10⁵ cells apart: the box is far too sparse to rank, so
  // the grid falls back to sorted keys and binary search.
  Geometry sparse{"sparse box", {}};
  add_box(sparse.points, engine, 120, -3.0, -3.0, 6.0, 6.0);
  add_box(sparse.points, engine, 120, 1.0e5, 5.0e4, 6.0, 6.0);
  out.push_back(std::move(sparse));

  // Coincident points (the d² = 0 mask) across a stripe boundary.
  Geometry coincident{"coincident points", {}};
  for (int k = 0; k < 5; ++k) {
    coincident.points.push_back({kColumns - 0.5, 0.5});
    coincident.points.push_back({kColumns + 0.25, 0.5});
  }
  add_box(coincident.points, engine, 20, kColumns - 1.0, 0.0, 2.0, 1.0);
  out.push_back(std::move(coincident));
  return out;
}

std::vector<InteractionModel> models() {
  std::vector<InteractionModel> out;
  InteractionModel spring(ForceLawKind::kSpring, 3,
                          PairParams{1.0, 0.6, 1.0, 1.0});
  spring.set_k(0, 2, 0.7).set_r(1, 2, 0.45);
  out.push_back(spring);
  InteractionModel gaussian(ForceLawKind::kDoubleGaussian, 3,
                            PairParams{1.3, 1.0, 0.3, 0.5});
  gaussian.set_k(0, 2, 0.7).set_sigma(1, 1, 0.4).set_tau(1, 2, 0.6);
  out.push_back(gaussian);
  return out;
}

ParticleSystem with_types(const std::vector<Vec2>& points) {
  std::vector<TypeId> types;
  for (std::size_t i = 0; i < points.size(); ++i) {
    types.push_back(static_cast<TypeId>((i * 7) % 3));
  }
  return {points, types};
}

TEST(HalfShell, MatchesScalarReferenceAtEveryWidth) {
  for (const Geometry& geometry : geometries()) {
    const ParticleSystem system = with_types(geometry.points);
    for (const InteractionModel& model : models()) {
      const PairScalingTable table(model);
      const bool compact = model.kind() == ForceLawKind::kDoubleGaussian;
      const std::vector<Vec2> reference =
          sops::testing::half_shell_reference(system, table, 1.0, compact);
      for (const auto policy : {sops::support::SimdPolicy::kScalar,
                                sops::support::SimdPolicy::kAuto}) {
        const SimdPolicyGuard guard(policy);
        for (std::size_t width = 1; width <= 4; ++width) {
          const std::vector<Vec2> drift =
              engine_drift(system, table, 1.0, width);
          ASSERT_EQ(drift.size(), reference.size());
          for (std::size_t i = 0; i < drift.size(); ++i) {
            ASSERT_EQ(drift[i], reference[i])
                << geometry.name << " law " << static_cast<int>(model.kind())
                << " policy " << static_cast<int>(policy) << " width "
                << width << " i " << i;
          }
        }
      }
    }
  }
}

TEST(HalfShell, GeometriesReachEveryStripeShape) {
  // The geometries above are only worth their names if the grid sees
  // them that way: count stripes, halos and cells per case.
  const auto stripes_of = [](const std::vector<Vec2>& points) {
    const ParticleSystem system = with_types(points);
    sops::geom::CellGridBackend backend;
    backend.rebuild(system.lanes(), 1.0);
    std::vector<sops::geom::CellGrid::Stripe> stripes;
    backend.grid().stripes(sops::sim::kDriftStripeColumns, stripes);
    return std::pair{stripes, backend.grid().cell_count()};
  };
  const std::vector<Geometry> cases = geometries();
  const auto halos = [](const auto& stripes) {
    std::size_t count = 0;
    for (const auto& s : stripes) count += s.halo_end > s.cell_end ? 1 : 0;
    return count;
  };
  {
    const auto [stripes, cells] = stripes_of(cases[0].points);  // one cell
    EXPECT_EQ(cells, 1u);
    EXPECT_EQ(stripes.size(), 1u);
  }
  {
    const auto [stripes, cells] = stripes_of(cases[1].points);  // one column
    EXPECT_EQ(stripes.size(), 1u);
    EXPECT_GT(cells, 10u);
  }
  {
    const auto [stripes, cells] = stripes_of(cases[2].points);  // boundary
    ASSERT_EQ(stripes.size(), 2u);
    EXPECT_EQ(halos(stripes), 1u);
  }
  {
    const auto [stripes, cells] = stripes_of(cases[3].points);  // gaps
    EXPECT_EQ(stripes.size(), 4u);
    EXPECT_EQ(halos(stripes), 1u);
  }
  {
    const auto [stripes, cells] = stripes_of(cases[5].points);  // sparse
    EXPECT_GE(stripes.size(), 3u);
    EXPECT_GE(halos(stripes), 2u);
  }
}

TEST(HalfShell, TwoParticlesFeelExactlyOppositeDrifts) {
  // F_αβ = F_βα and exact IEEE negation: drift_0 = −drift_1 bit for bit,
  // wherever the pair sits on the grid — one cell, a cell and the one
  // above, across columns, across a stripe boundary (the halo), in either
  // index order — and on the all-pairs triangle at a finite and an
  // unbounded r_c.
  const std::pair<sops::geom::NeighborBackendKind, double> backends[] = {
      {kCellGrid, 1.0},
      {kAllPairs, 2.5},
      {kAllPairs, sops::sim::kUnboundedRadius}};
  const std::vector<std::pair<Vec2, Vec2>> pairs = {
      {{0.3, 0.4}, {0.71, 0.13}},
      {{0.3, 0.9}, {0.55, 1.2}},
      {{0.8, 0.2}, {1.3, -0.3}},
      {{kColumns - 0.2, 0.6}, {kColumns + 0.3, 0.35}},
      {{kColumns + 0.3, 0.35}, {kColumns - 0.2, 0.6}},
  };
  for (const InteractionModel& model : models()) {
    const PairScalingTable table(model);
    for (const auto& [a, b] : pairs) {
      const ParticleSystem system({a, b}, {0, 2});
      for (const auto& [kind, cutoff] : backends) {
        for (const auto policy : {sops::support::SimdPolicy::kScalar,
                                  sops::support::SimdPolicy::kAuto}) {
          const SimdPolicyGuard guard(policy);
          const std::vector<Vec2> drift =
              engine_drift(system, table, cutoff, 2, kind);
          ASSERT_NE(drift[0].x, 0.0);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(drift[0].x),
                    std::bit_cast<std::uint64_t>(-drift[1].x));
          EXPECT_EQ(std::bit_cast<std::uint64_t>(drift[0].y),
                    std::bit_cast<std::uint64_t>(-drift[1].y));
        }
      }
    }
  }
}

TEST(HalfShell, DriftsSumToZeroWithinRounding) {
  // Every pair term enters once with each sign, so Σᵢ drift_i is pure
  // rounding: bounded by a small multiple of ε times the summed term
  // magnitudes (a missing or doubled pair would be ~1/pairs of that).
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    sops::rng::Xoshiro256 engine(0x2E20 + seed);
    const std::size_t n = 50 + engine() % 400;
    const double radius = sops::rng::uniform(engine, 2.0, 14.0);
    std::vector<Vec2> points;
    for (std::size_t i = 0; i < n; ++i) {
      points.push_back(sops::rng::uniform_disc(engine, radius));
    }
    const ParticleSystem system = with_types(points);
    const double cutoff = sops::rng::uniform(engine, 1.0, 3.0);
    const InteractionModel model(
        seed % 2 == 0 ? ForceLawKind::kSpring : ForceLawKind::kDoubleGaussian,
        3, PairParams{1.0, 1.5, 0.8, 2.0});
    const PairScalingTable table(model);
    double scale = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const Vec2 delta = system.position(i) - system.position(j);
        const double d = std::sqrt(sops::geom::norm_sq(delta));
        if (d >= cutoff || d == 0.0) continue;
        const double f =
            model.scaling(system.types[i], system.types[j], d);
        scale += std::abs(f * delta.x) + std::abs(f * delta.y);
      }
    }
    const std::vector<Vec2> drift = engine_drift(system, table, cutoff, 3);
    Vec2 total{};
    for (const Vec2 d : drift) total += d;
    EXPECT_LE(std::abs(total.x) + std::abs(total.y), 1e-13 * scale)
        << "seed " << seed << " scale " << scale;
    EXPECT_GT(scale, 0.0) << seed;
  }
}

// ------------------------------------------------- all-pairs triangle

// `n` particles in a disc, three types, and a coincident triple (indices 0,
// n/2, n − 1 share a position) once n ≥ 3, so the d² = 0 mask lands in the
// first tile and, from n > kTile, across a tile boundary.
ParticleSystem triangle_system(std::size_t n, std::uint64_t seed) {
  sops::rng::Xoshiro256 engine(seed);
  std::vector<Vec2> points;
  for (std::size_t i = 0; i < n; ++i) {
    points.push_back(sops::rng::uniform_disc(engine, 4.0));
  }
  if (n >= 3) points[n / 2] = points[n - 1] = points[0];
  return with_types(points);
}

TEST(AllPairsTriangle, MatchesScalarReferenceAtEveryWidth) {
  const double unbounded = sops::sim::kUnboundedRadius;
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, kTile - 1, kTile,
        kTile + 1, 2 * kTile + 3}) {
    const ParticleSystem system = triangle_system(n, 0xA11 + n);
    for (const InteractionModel& model : models()) {
      const PairScalingTable table(model);
      const bool compact = model.kind() == ForceLawKind::kDoubleGaussian;
      for (const double cutoff : {2.5, unbounded}) {
        const std::vector<Vec2> reference =
            sops::testing::all_pairs_reference(system, table, cutoff, compact);
        for (const auto policy : {sops::support::SimdPolicy::kScalar,
                                  sops::support::SimdPolicy::kAuto}) {
          const SimdPolicyGuard guard(policy);
          for (std::size_t width = 1; width <= 5; ++width) {
            const std::vector<Vec2> drift =
                engine_drift(system, table, cutoff, width, kAllPairs);
            ASSERT_EQ(drift.size(), n);
            for (std::size_t i = 0; i < n; ++i) {
              ASSERT_EQ(drift[i], reference[i])
                  << "n " << n << " law " << static_cast<int>(model.kind())
                  << " r_c " << cutoff << " policy "
                  << static_cast<int>(policy) << " width " << width << " i "
                  << i;
            }
          }
        }
      }
    }
  }
}

TEST(AllPairsTriangle, ReferenceSumsEveryPairOnce) {
  // The reference is only worth matching if it is the law's pair sum:
  // against a plain double loop over all j ≠ i, within rounding, across
  // two tile boundaries.
  const ParticleSystem system = triangle_system(2 * kTile + 3, 0x7E1);
  for (const InteractionModel& model : models()) {
    const PairScalingTable table(model);
    const std::vector<Vec2> reference = sops::testing::all_pairs_reference(
        system, table, 2.5, model.kind() == ForceLawKind::kDoubleGaussian);
    for (std::size_t i = 0; i < system.size(); ++i) {
      Vec2 direct{};
      for (std::size_t j = 0; j < system.size(); ++j) {
        const Vec2 delta = system.position(i) - system.position(j);
        const double d = std::sqrt(sops::geom::norm_sq(delta));
        if (d >= 2.5 || d == 0.0) continue;
        direct += delta * (-model.scaling(system.types[i], system.types[j], d));
      }
      EXPECT_NEAR(reference[i].x, direct.x, 1e-12) << i;
      EXPECT_NEAR(reference[i].y, direct.y, 1e-12) << i;
    }
  }
}

}  // namespace
