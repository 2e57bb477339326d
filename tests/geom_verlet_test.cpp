// VerletListBackend: displacement-gated rebuilds, the never-miss-a-pair
// safety invariant, shard-parallel build thread-invariance (TaskPool), and
// the engine/ensemble plumbing of NeighborMode::kVerletSkin.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/experiment.hpp"
#include "geom/neighbor_backend.hpp"
#include "geom/verlet_list.hpp"
#include "rng/samplers.hpp"
#include "sim/forces.hpp"
#include "sim/simulation.hpp"
#include "support/executor.hpp"

namespace {

using sops::geom::Vec2;
using sops::geom::VerletListBackend;
using sops::sim::accumulate_drift;
using sops::sim::ForceLawKind;
using sops::sim::InteractionModel;
using sops::sim::NeighborMode;
using sops::sim::PairParams;
using sops::sim::PairScalingTable;
using sops::sim::ParticleSystem;

std::vector<Vec2> random_points(std::size_t n, double disc_radius,
                                std::uint64_t seed) {
  sops::rng::Xoshiro256 engine(seed);
  std::vector<Vec2> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    points.push_back(sops::rng::uniform_disc(engine, disc_radius));
  }
  return points;
}

// SoA copy of interleaved test points for the lane-based rebuild. The
// backend reads the lanes until its next rebuild, so each test keeps one
// alive across its queries.
struct Lanes {
  std::vector<double> x;
  std::vector<double> y;
  sops::geom::PositionLanes of(const std::vector<Vec2>& points) {
    sops::geom::deinterleave(points, x, y);
    return {x, y};
  }
};

// Ascending-index reference: every j ≠ i with ‖p_j − p_i‖ < radius.
std::vector<std::uint32_t> brute_neighbors(const std::vector<Vec2>& points,
                                           std::size_t i, double radius) {
  std::vector<std::uint32_t> out;
  for (std::size_t j = 0; j < points.size(); ++j) {
    if (j == i) continue;
    if (sops::geom::dist_sq(points[i], points[j]) < radius * radius) {
      out.push_back(static_cast<std::uint32_t>(j));
    }
  }
  return out;
}

// The backend's neighbors(i) as a sorted set (its order is the frozen build
// walk, not ascending index).
std::vector<std::uint32_t> sorted_neighbors(VerletListBackend& backend,
                                            std::size_t i) {
  const auto span = backend.neighbors(i);
  std::vector<std::uint32_t> out(span.begin(), span.end());
  std::sort(out.begin(), out.end());
  return out;
}

TEST(VerletList, QuietStepsSkipAndDisplacementPastHalfSkinRebuilds) {
  const double radius = 1.5;
  const double skin = 0.8;
  std::vector<Vec2> points = random_points(60, 5.0, 71);
  VerletListBackend backend(skin);
  Lanes lanes;

  backend.rebuild(lanes.of(points), radius);
  EXPECT_EQ(backend.stats().builds, 1u);
  EXPECT_EQ(backend.stats().steps, 1u);

  // Under the threshold: the cached list must be kept...
  points[0] += Vec2{0.39, 0.0};
  backend.rebuild(lanes.of(points), radius);
  EXPECT_EQ(backend.stats().builds, 1u);
  EXPECT_EQ(backend.stats().steps, 2u);
  // ...and still satisfy the exact neighbor contract at the new positions.
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(sorted_neighbors(backend, i), brute_neighbors(points, i, radius))
        << "i=" << i;
  }

  // Crossing skin/2 (total displacement from the *reference* build, not the
  // previous step) must trigger a rebuild.
  points[0] += Vec2{0.02, 0.0};  // total 0.41 > skin/2 = 0.4
  backend.rebuild(lanes.of(points), radius);
  EXPECT_EQ(backend.stats().builds, 2u);
  EXPECT_EQ(backend.stats().steps, 3u);
}

TEST(VerletList, NeverMissesAPairThatEntersTheRadiusBetweenRebuilds) {
  // Two particles just outside the cut-off but inside the skin shell; one
  // drifts toward the other while staying under skin/2. The pair enters
  // r_c without any rebuild — the cached candidates must already hold it.
  const double radius = 1.5;
  const double skin = 0.8;
  std::vector<Vec2> points{{0.0, 0.0}, {1.6, 0.0}, {4.0, 4.0}};
  VerletListBackend backend(skin);
  Lanes lanes;
  backend.rebuild(lanes.of(points), radius);
  EXPECT_TRUE(sorted_neighbors(backend, 0).empty());

  points[1].x = 1.25;  // moved 0.35 < skin/2; now inside r_c
  backend.rebuild(lanes.of(points), radius);
  EXPECT_EQ(backend.stats().builds, 1u) << "displacement under skin/2 rebuilt";
  EXPECT_EQ(sorted_neighbors(backend, 0), (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(sorted_neighbors(backend, 1), (std::vector<std::uint32_t>{0}));
}

TEST(VerletList, FuzzedQuietMotionNeverMissesAPair) {
  // Randomized displacement sequences capped below skin/2: at every step
  // the filtered list must equal the brute-force neighbor set exactly.
  const double radius = 2.0;
  const double skin = 1.0;
  sops::rng::Xoshiro256 engine(0xBEEF);
  std::vector<Vec2> points = random_points(120, 7.0, 19);
  std::vector<Vec2> reference = points;
  VerletListBackend backend(skin);
  Lanes lanes;
  backend.rebuild(lanes.of(points), radius);

  for (int step = 0; step < 30; ++step) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      // Propose a jitter, but keep every particle within skin/2 of the
      // reference so this trajectory never legitimately triggers a rebuild.
      const Vec2 jitter = sops::rng::uniform_disc(engine, 0.12);
      const Vec2 candidate = points[i] + jitter;
      if (sops::geom::dist_sq(candidate, reference[i]) <
          (skin / 2) * (skin / 2)) {
        points[i] = candidate;
      }
    }
    backend.rebuild(lanes.of(points), radius);
    ASSERT_EQ(backend.stats().builds, 1u);
    for (std::size_t i = 0; i < points.size(); ++i) {
      ASSERT_EQ(sorted_neighbors(backend, i),
                brute_neighbors(points, i, radius))
          << "step " << step << " i " << i;
    }
  }
  EXPECT_GT(backend.stats().skip_rate(), 0.9);
}

TEST(VerletList, ShardParallelRebuildIsThreadInvariantOnTheTaskPool) {
  const double radius = 2.0;
  std::vector<Vec2> points = random_points(400, 12.0, 23);

  VerletListBackend serial_backend;
  VerletListBackend pooled_backend;
  sops::support::TaskPool pool(4);
  Lanes lanes;

  // Build, quiet refresh, and displacement-triggered rebuild: after each,
  // every cached row must be identical for width 1 and width 4.
  const auto expect_identical_rows = [&] {
    ASSERT_EQ(serial_backend.size(), pooled_backend.size());
    for (std::size_t i = 0; i < serial_backend.size(); ++i) {
      const auto serial_row = serial_backend.candidate_row(i);
      const auto pooled_row = pooled_backend.candidate_row(i);
      ASSERT_EQ(std::vector<std::uint32_t>(serial_row.begin(), serial_row.end()),
                std::vector<std::uint32_t>(pooled_row.begin(), pooled_row.end()))
          << "i=" << i;
    }
  };

  lanes.of(points);
  serial_backend.rebuild({lanes.x, lanes.y}, radius);
  pooled_backend.rebuild({lanes.x, lanes.y}, radius, pool.executor());
  expect_identical_rows();

  for (Vec2& p : points) p += Vec2{0.05, -0.03};  // quiet: under skin/2
  lanes.of(points);
  serial_backend.rebuild({lanes.x, lanes.y}, radius);
  pooled_backend.rebuild({lanes.x, lanes.y}, radius, pool.executor());
  EXPECT_EQ(serial_backend.stats().builds, 1u);
  EXPECT_EQ(pooled_backend.stats().builds, 1u);
  expect_identical_rows();

  points[7] += Vec2{2.0, 2.0};  // forced: past skin/2
  lanes.of(points);
  serial_backend.rebuild({lanes.x, lanes.y}, radius);
  pooled_backend.rebuild({lanes.x, lanes.y}, radius, pool.executor());
  EXPECT_EQ(serial_backend.stats().builds, 2u);
  EXPECT_EQ(pooled_backend.stats().builds, 2u);
  expect_identical_rows();
}

TEST(VerletList, ShardedDriftIsBitwiseEqualToSerialAcrossRebuilds) {
  const double cutoff = 2.5;
  const std::size_t n = 600;
  const InteractionModel model(ForceLawKind::kSpring, 3,
                               PairParams{1.0, 2.0, 1.0, 1.0});
  const PairScalingTable table(model);
  std::vector<sops::sim::TypeId> types;
  for (std::size_t i = 0; i < n; ++i) {
    types.push_back(static_cast<sops::sim::TypeId>(i % 3));
  }
  ParticleSystem serial_system(random_points(n, 18.0, 91), types);
  ParticleSystem pooled_system = serial_system;

  sops::geom::NeighborBackend serial_list(
      sops::geom::NeighborBackendKind::kVerletSkin);
  sops::geom::NeighborBackend pooled_list(
      sops::geom::NeighborBackendKind::kVerletSkin);
  const auto& serial_backend = std::get<VerletListBackend>(serial_list.get());
  const auto& pooled_backend = std::get<VerletListBackend>(pooled_list.get());
  sops::support::TaskPool pool(4);
  sops::sim::IntegratorParams params;
  sops::rng::Xoshiro256 serial_engine(5);
  sops::rng::Xoshiro256 pooled_engine(5);
  std::vector<Vec2> serial_drift;
  std::vector<Vec2> pooled_drift;

  // Every 4th step repeats the positions (no integrator update), which
  // guarantees the quiet refresh path is exercised and compared; the other
  // steps move freely, so displacement-triggered rebuilds happen too.
  for (int step = 0; step < 20; ++step) {
    accumulate_drift(serial_system, table, cutoff, serial_drift, serial_list,
                     sops::support::serial_executor());
    accumulate_drift(pooled_system, table, cutoff, pooled_drift, pooled_list,
                     pool.executor());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(serial_drift[i], pooled_drift[i]) << "step " << step << " i " << i;
    }
    if (step % 4 == 3) continue;
    sops::sim::apply_euler_maruyama_update(serial_system, serial_drift, params,
                                           serial_engine);
    sops::sim::apply_euler_maruyama_update(pooled_system, pooled_drift, params,
                                           pooled_engine);
  }
  EXPECT_EQ(serial_backend.stats().builds, pooled_backend.stats().builds);
  EXPECT_GE(serial_backend.stats().builds, 1u);
  EXPECT_LT(serial_backend.stats().builds, serial_backend.stats().steps);
}

TEST(VerletList, ShardBoundsPartitionParticleIdOrder) {
  std::vector<Vec2> points = random_points(150, 9.0, 37);
  VerletListBackend backend;
  Lanes lanes;
  backend.rebuild(lanes.of(points), 2.0);

  for (const std::size_t shards : {1u, 3u, 8u}) {
    const auto bounds = backend.shard_bounds(shards);
    ASSERT_GE(bounds.size(), 2u);
    EXPECT_EQ(bounds.front(), 0u);
    EXPECT_EQ(bounds.back(), points.size());
    EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));
    EXPECT_LE(bounds.size() - 1, std::max<std::size_t>(shards, 1));
  }
}

TEST(VerletList, ModeResolutionIsExhaustiveAndAutoNeverPicksVerlet) {
  using sops::sim::resolve_neighbor_mode;
  // kAuto keeps its PR 1 rules: cell grid for finite r_c at n ≥ 64.
  EXPECT_EQ(resolve_neighbor_mode(NeighborMode::kAuto, 1024, 3.0),
            NeighborMode::kCellGrid);
  EXPECT_EQ(resolve_neighbor_mode(NeighborMode::kAuto, 1024,
                                  sops::sim::kUnboundedRadius),
            NeighborMode::kAllPairs);
  // The opt-in passes through; it is never auto-selected.
  EXPECT_EQ(resolve_neighbor_mode(NeighborMode::kVerletSkin, 1024, 3.0),
            NeighborMode::kVerletSkin);
  // A value outside the enum fails loudly instead of riding a default
  // branch into some backend.
  EXPECT_THROW(
      (void)resolve_neighbor_mode(static_cast<NeighborMode>(99), 64, 3.0),
      sops::PreconditionError);
  EXPECT_THROW((void)sops::sim::neighbor_backend_kind(NeighborMode::kAuto),
               sops::PreconditionError);
}

TEST(VerletList, VerletModeRequiresFiniteCutoff) {
  const InteractionModel model(ForceLawKind::kSpring, 1,
                               PairParams{1.0, 2.0, 1.0, 1.0});
  ParticleSystem system(random_points(32, 4.0, 3),
                        std::vector<sops::sim::TypeId>(32, 0));
  std::vector<Vec2> drift;
  EXPECT_THROW(accumulate_drift(system, model, sops::sim::kUnboundedRadius,
                                drift, NeighborMode::kVerletSkin),
               sops::PreconditionError);
}

TEST(VerletList, WorkspaceReuseNeverLeaksListHistoryAcrossRuns) {
  // A tight initial disc keeps every run's initial positions within skin/2
  // of wherever the previous run's reference build ended up, so a stale
  // list would pass the displacement check and leak its frozen enumeration
  // order into the next run. prepare() forces one build per run instead:
  // a warm workspace must reproduce a fresh one bitwise.
  sops::sim::SimulationConfig config(
      InteractionModel(ForceLawKind::kSpring, 1, PairParams{0.2, 0.1, 1.0, 1.0}));
  config.types.assign(40, 0);
  config.cutoff_radius = 2.0;
  config.init_disc_radius = 0.2;
  config.neighbor_mode = NeighborMode::kVerletSkin;
  config.verlet_skin = 1.0;
  config.integrator.dt = 0.001;
  config.integrator.noise_variance = 1e-6;
  config.steps = 15;
  config.seed = 23;

  // Warm the workspace on one run, then run a *different* sample (other
  // seed, same tight disc — its initial positions also sit within skin/2 of
  // the stale reference). Without the forced per-run build, the second run
  // would sum drifts in the first run's frozen row order and diverge
  // bitwise from a fresh workspace.
  sops::sim::SimulationWorkspace warm;
  (void)sops::sim::run_simulation(config, warm);
  sops::sim::SimulationConfig other = config;
  other.seed = 24;
  const sops::sim::Trajectory via_warm = sops::sim::run_simulation(other, warm);
  const sops::sim::Trajectory via_fresh = sops::sim::run_simulation(other);
  ASSERT_EQ(via_warm.frames.size(), via_fresh.frames.size());
  for (std::size_t f = 0; f < via_warm.frames.size(); ++f) {
    for (std::size_t i = 0; i < via_warm.frames[f].size(); ++i) {
      ASSERT_EQ(via_warm.frames[f][i], via_fresh.frames[f][i])
          << "f=" << f << " i=" << i;
    }
  }
}

TEST(VerletList, SimulationAndExperimentPlumbThroughStats) {
  sops::sim::SimulationConfig config(
      InteractionModel(ForceLawKind::kSpring, 2, PairParams{1.0, 2.0, 1.0, 1.0}));
  config.types = sops::sim::evenly_distributed_types(96, 2);
  config.cutoff_radius = 3.0;
  config.neighbor_mode = NeighborMode::kVerletSkin;
  config.verlet_skin = 1.2;
  config.steps = 40;
  config.seed = 17;

  sops::sim::SimulationWorkspace workspace;
  const sops::sim::Trajectory trajectory =
      sops::sim::run_simulation(config, workspace);
  EXPECT_EQ(trajectory.frame_count(), 41u);
  const sops::geom::VerletListBackend* backend = workspace.verlet_backend();
  ASSERT_NE(backend, nullptr);
  EXPECT_DOUBLE_EQ(backend->skin(), 1.2);
  // One refresh per drift evaluation: steps 0..40 inclusive.
  EXPECT_EQ(backend->stats().steps, 41u);
  EXPECT_GE(backend->stats().builds, 1u);

  sops::core::ExperimentConfig experiment(config);
  experiment.samples = 4;
  const sops::core::EnsembleSeries series = sops::core::run_experiment(experiment);
  EXPECT_EQ(series.rebuild_stats.steps, 4u * 41u);
  EXPECT_GE(series.rebuild_stats.rebuilds, 1u);
  EXPECT_LE(series.rebuild_stats.rebuilds, series.rebuild_stats.steps);

  // Every non-Verlet mode reports a full rebuild per step (skip rate 0).
  sops::core::ExperimentConfig grid_experiment(config);
  grid_experiment.simulation.neighbor_mode = NeighborMode::kAuto;
  grid_experiment.samples = 2;
  const sops::core::EnsembleSeries grid_series =
      sops::core::run_experiment(grid_experiment);
  EXPECT_EQ(grid_series.rebuild_stats.rebuilds, grid_series.rebuild_stats.steps);
  EXPECT_DOUBLE_EQ(grid_series.rebuild_stats.skip_rate(), 0.0);
}

}  // namespace
