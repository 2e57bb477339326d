// Engine tests: neighbor-backend parity, workspace reuse, streamed runs,
// golden fixed-seed trajectories (bitwise-pinned to the pre-refactor
// engine), and thread-count determinism of the ensemble pipeline.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "core/analyzer.hpp"
#include "core/experiment.hpp"
#include "core/presets.hpp"
#include "geom/neighbor_backend.hpp"
#include "rng/samplers.hpp"
#include "sim/simulation.hpp"
#include "sim/workspace.hpp"
#include "support/error.hpp"

namespace {

using sops::geom::NeighborBackendKind;
using sops::geom::Vec2;
using sops::sim::accumulate_drift;
using sops::sim::ForceLawKind;
using sops::sim::InteractionModel;
using sops::sim::NeighborMode;
using sops::sim::PairParams;
using sops::sim::ParticleSystem;
using sops::sim::run_simulation;
using sops::sim::SimulationConfig;
using sops::sim::SimulationWorkspace;
using sops::sim::Trajectory;

// ---------------------------------------------------------------- parity

InteractionModel spring_model(std::size_t types) {
  return InteractionModel(ForceLawKind::kSpring, types,
                          PairParams{1.0, 2.0, 1.0, 1.0});
}

// Broad parity coverage (random configs, all backend pairs, the sharded
// path) lives in engine_parity_fuzz_test.cpp; here only the hand-built
// geometry that pins the cross-strategy claim remains.

TEST(BackendParity, DelaunayWithinCutoffMatchesOnRing) {
  // On a jittered convex ring with the cut-off between the nearest- and
  // next-nearest-neighbor spacing, the within-cutoff graph is exactly the
  // ring adjacency, and ring edges are hull edges of the Delaunay
  // triangulation — so all three backends see the same pair set.
  const std::size_t n = 16;
  const double base_radius = 6.66;  // adjacent spacing ≈ 2.6 < 3 < 5.1
  sops::rng::Xoshiro256 engine(5);
  std::vector<Vec2> positions;
  std::vector<sops::sim::TypeId> types(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const double angle = 2.0 * M_PI * static_cast<double>(i) / n;
    const double radius = base_radius + sops::rng::uniform(engine, -0.05, 0.05);
    positions.push_back({radius * std::cos(angle), radius * std::sin(angle)});
  }
  const ParticleSystem system(positions, types);
  const sops::sim::PairScalingTable table(spring_model(1));
  const double cutoff = 3.0;

  std::vector<Vec2> all_pairs;
  std::vector<Vec2> cell_grid;
  std::vector<Vec2> delaunay;
  for (auto [kind, out] : {std::pair{NeighborBackendKind::kAllPairs, &all_pairs},
                           std::pair{NeighborBackendKind::kCellGrid, &cell_grid},
                           std::pair{NeighborBackendKind::kDelaunay, &delaunay}}) {
    sops::geom::NeighborBackend backend(kind);
    accumulate_drift(system, table, cutoff, *out, backend,
                     sops::support::serial_executor());
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(all_pairs[i].x, cell_grid[i].x, 1e-12) << i;
    EXPECT_NEAR(all_pairs[i].y, cell_grid[i].y, 1e-12) << i;
    EXPECT_NEAR(all_pairs[i].x, delaunay[i].x, 1e-12) << i;
    EXPECT_NEAR(all_pairs[i].y, delaunay[i].y, 1e-12) << i;
  }
}

// ------------------------------------------------------------- workspace

TEST(Workspace, ReuseAcrossRunsIsDeterministic) {
  SimulationConfig config = sops::core::presets::fig4_three_type_collective();
  config.types = sops::sim::evenly_distributed_types(80, 3);
  config.steps = 12;
  config.seed = 3;

  SimulationWorkspace workspace;
  const Trajectory first = run_simulation(config, workspace);
  const Trajectory again = run_simulation(config, workspace);  // warm reuse
  const Trajectory fresh = run_simulation(config);
  ASSERT_EQ(first.frames.size(), again.frames.size());
  for (std::size_t f = 0; f < first.frames.size(); ++f) {
    for (std::size_t i = 0; i < first.frames[f].size(); ++i) {
      EXPECT_EQ(first.frames[f][i], again.frames[f][i]);
      EXPECT_EQ(first.frames[f][i], fresh.frames[f][i]);
    }
  }
}

TEST(Workspace, SurvivesBackendKindSwitches) {
  // One workspace driven through configs that resolve to different
  // backends must match fresh-workspace runs on each.
  SimulationWorkspace workspace;
  for (const NeighborMode mode :
       {NeighborMode::kCellGrid, NeighborMode::kDelaunay,
        NeighborMode::kAllPairs, NeighborMode::kCellGrid}) {
    SimulationConfig config(spring_model(2));
    config.types = sops::sim::evenly_distributed_types(40, 2);
    config.cutoff_radius = 4.0;
    config.neighbor_mode = mode;
    config.steps = 8;
    config.seed = 11;
    const Trajectory reused = run_simulation(config, workspace);
    const Trajectory fresh = run_simulation(config);
    for (std::size_t f = 0; f < reused.frames.size(); ++f) {
      for (std::size_t i = 0; i < reused.frames[f].size(); ++i) {
        EXPECT_EQ(reused.frames[f][i], fresh.frames[f][i]);
      }
    }
  }
}

// ---------------------------------------------------------- streamed runs

TEST(StreamedRun, MatchesTrajectoryRun) {
  SimulationConfig config(spring_model(1));
  config.types = sops::sim::evenly_distributed_types(30, 1);
  config.cutoff_radius = 5.0;
  config.steps = 20;
  config.record_stride = 3;
  config.seed = 17;

  const Trajectory reference = run_simulation(config);

  SimulationWorkspace workspace;
  std::vector<std::vector<Vec2>> streamed_frames;
  const sops::sim::StreamedRun run = sops::sim::run_simulation_streamed(
      config, workspace,
      [&](std::size_t f, std::size_t step, sops::geom::PositionLanes positions) {
        EXPECT_EQ(f, streamed_frames.size());
        EXPECT_EQ(step, reference.frame_steps[f]);
        sops::geom::interleave(positions, streamed_frames.emplace_back());
      });

  EXPECT_EQ(run.frame_steps, reference.frame_steps);
  EXPECT_EQ(run.residual_norms, reference.residual_norms);
  EXPECT_EQ(run.equilibrium_step, reference.equilibrium_step);
  ASSERT_EQ(streamed_frames.size(), reference.frames.size());
  for (std::size_t f = 0; f < streamed_frames.size(); ++f) {
    for (std::size_t i = 0; i < streamed_frames[f].size(); ++i) {
      EXPECT_EQ(streamed_frames[f][i], reference.frames[f][i]);
    }
  }
}

TEST(StreamedRun, LazyResidualsLeaveFramesUnchanged) {
  SimulationConfig config(spring_model(1));
  config.types = sops::sim::evenly_distributed_types(24, 1);
  config.cutoff_radius = 5.0;
  config.steps = 15;
  config.record_stride = 5;
  config.seed = 23;

  const Trajectory tracked = run_simulation(config);
  config.track_equilibrium = false;
  const Trajectory lazy = run_simulation(config);

  EXPECT_FALSE(lazy.equilibrium_step.has_value());
  EXPECT_EQ(lazy.residual_norms, tracked.residual_norms);
  ASSERT_EQ(lazy.frames.size(), tracked.frames.size());
  for (std::size_t f = 0; f < lazy.frames.size(); ++f) {
    for (std::size_t i = 0; i < lazy.frames[f].size(); ++i) {
      EXPECT_EQ(lazy.frames[f][i], tracked.frames[f][i]);
    }
  }
}

TEST(StreamedRun, StopAtEquilibriumRequiresTracking) {
  SimulationConfig config(spring_model(1));
  config.types = sops::sim::evenly_distributed_types(8, 1);
  config.stop_at_equilibrium = true;
  config.track_equilibrium = false;
  EXPECT_THROW((void)run_simulation(config), sops::PreconditionError);
}

TEST(RecordingSteps, MatchesDriverGrid) {
  EXPECT_EQ(sops::sim::recording_steps(10, 4),
            (std::vector<std::size_t>{0, 4, 8, 10}));
  EXPECT_EQ(sops::sim::recording_steps(10, 1).size(), 11u);
  EXPECT_EQ(sops::sim::recording_steps(5, 100),
            (std::vector<std::size_t>{0, 5}));
  EXPECT_EQ(sops::sim::recording_steps(8, 4),
            (std::vector<std::size_t>{0, 4, 8}));
}

// ------------------------------------------------------ golden (bitwise)

// The golden values below were captured from the pre-refactor engine (the
// seed implementation with per-step index construction). The refactored
// engine must reproduce them bit for bit: neighbor enumeration order, drift
// summation order, and RNG draw order are all part of the contract. The
// post-step values were re-captured once, deliberately, when the step noise
// became the counter-based stream of rng/step_noise.hpp; the frame-0
// residuals precede any noise and did not move. The cell-grid pins were
// re-captured again when the grid's drift began computing each pair once
// (half shells in fixed column stripes, sim/drift_kernel.hpp), and the
// all-pairs pins when all-pairs did too (the index triangle in fixed row
// tiles).

SimulationConfig golden_all_pairs_config() {
  SimulationConfig config(spring_model(1));
  config.types = sops::sim::evenly_distributed_types(12, 1);
  config.cutoff_radius = sops::sim::kUnboundedRadius;
  config.init_disc_radius = 3.0;
  config.steps = 40;
  config.record_stride = 7;
  config.seed = 7;
  return config;
}

SimulationConfig golden_cell_grid_config() {
  SimulationConfig config = sops::core::presets::fig4_three_type_collective();
  config.types = sops::sim::evenly_distributed_types(80, 3);
  config.steps = 30;
  config.record_stride = 10;
  config.seed = 42;
  return config;
}

SimulationConfig golden_delaunay_config() {
  SimulationConfig config(InteractionModel(ForceLawKind::kSpring, 2,
                                           PairParams{1.0, 2.5, 1.0, 1.0}));
  config.types = sops::sim::evenly_distributed_types(30, 2);
  config.cutoff_radius = 4.0;
  config.init_disc_radius = 4.0;
  config.neighbor_mode = NeighborMode::kDelaunay;
  config.steps = 25;
  config.record_stride = 5;
  config.seed = 99;
  return config;
}

void expect_bitwise(const Trajectory& trajectory,
                    const std::vector<Vec2>& final_positions,
                    const std::vector<double>& residuals) {
  ASSERT_EQ(trajectory.residual_norms.size(), residuals.size());
  for (std::size_t f = 0; f < residuals.size(); ++f) {
    EXPECT_EQ(trajectory.residual_norms[f], residuals[f]) << "residual " << f;
  }
  ASSERT_EQ(trajectory.frames.back().size(), final_positions.size());
  for (std::size_t i = 0; i < final_positions.size(); ++i) {
    EXPECT_EQ(trajectory.frames.back()[i], final_positions[i]) << "particle " << i;
  }
  EXPECT_FALSE(trajectory.equilibrium_step.has_value());
}

TEST(GoldenTrajectory, AllPairsBitwiseStable) {
  const std::vector<Vec2> expected{
      {0x1.9c9980bcd5a77p-1, 0x1.091eb125c9356p+0},
      {0x1.d42116b6638c4p+0, -0x1.5155a99c6557p-2},
      {0x1.e3ab8e527dd6dp+0, 0x1.5fee028558952p-1},
      {0x1.07a38c5194f29p+0, 0x1.ad9c9742f0f98p+0},
      {-0x1.d428992ff808ep-1, 0x1.5eb513067be94p-7},
      {-0x1.45f727793750ep-1, 0x1.a72cb38fc0557p-1},
      {0x1.40135b238c13cp-2, -0x1.32676250f2ec8p+0},
      {0x1.3bcd707bcb40dp+0, -0x1.e0633b2545fp-1},
      {-0x1.0aee0c595395cp-2, -0x1.74caa118fa4e8p-1},
      {-0x1.3ce4b33f486c3p-5, 0x1.69852a56f4818p+0},
      {0x1.54966b4449825p+0, 0x1.1961aeaafb2a7p-2},
      {0x1.486bf3318c281p-3, -0x1.955e77e99b75p-4},
  };
  const std::vector<double> residuals{
      0x1.0e6241ffbcadfp+7, 0x1.2cfb2265d9a46p+2, 0x1.74443409ffedcp+2,
      0x1.f2dbf278019b7p+1, 0x1.2eb6a8f1a694bp+2, 0x1.191c3991c5dcfp+2,
      0x1.e4a31c2d06d08p+1,
  };
  expect_bitwise(run_simulation(golden_all_pairs_config()), expected, residuals);
}

TEST(GoldenTrajectory, CellGridBitwiseStable) {
  // Spot-check a spread of particles of the 80-particle collective plus the
  // full residual series (any drift or RNG divergence reaches both).
  const Trajectory trajectory = run_simulation(golden_cell_grid_config());
  const std::vector<double> residuals{
      0x1.ef0063549657ap+9,
      0x1.9c981accbd0b1p+10,
      0x1.a74b8197d462fp+10,
      0x1.2dd21dfa35fbcp+10,
  };
  ASSERT_EQ(trajectory.residual_norms.size(), residuals.size());
  for (std::size_t f = 0; f < residuals.size(); ++f) {
    EXPECT_EQ(trajectory.residual_norms[f], residuals[f]) << f;
  }
  ASSERT_EQ(trajectory.frames.back().size(), 80u);
  EXPECT_EQ(trajectory.frames.back()[0],
            (Vec2{-0x1.1b79a87d1236ap+1, -0x1.2b4e51ce138d5p+2}));
  EXPECT_EQ(trajectory.frames.back()[17],
            (Vec2{0x1.5487af4314204p+2, 0x1.8009a91cd7cb9p-1}));
  EXPECT_EQ(trajectory.frames.back()[40],
            (Vec2{-0x1.101003ee4d906p+1, 0x1.346a58054686bp+1}));
  EXPECT_EQ(trajectory.frames.back()[63],
            (Vec2{-0x1.560a313d5923bp+0, 0x1.c3c75c9367174p+1}));
  EXPECT_EQ(trajectory.frames.back()[79],
            (Vec2{-0x1.166b77f990242p+1, 0x1.838a90aa43cc2p+1}));
  EXPECT_FALSE(trajectory.equilibrium_step.has_value());
}

TEST(GoldenTrajectory, DelaunayBitwiseStable) {
  const Trajectory trajectory = run_simulation(golden_delaunay_config());
  const std::vector<double> residuals{
      0x1.2549eecdc823p+6,  0x1.1eb136220af03p+5, 0x1.77e275120e689p+4,
      0x1.545665f153956p+4, 0x1.35e9aba02d2b1p+4, 0x1.218f520555d4cp+4,
  };
  ASSERT_EQ(trajectory.residual_norms.size(), residuals.size());
  for (std::size_t f = 0; f < residuals.size(); ++f) {
    EXPECT_EQ(trajectory.residual_norms[f], residuals[f]) << f;
  }
  ASSERT_EQ(trajectory.frames.back().size(), 30u);
  EXPECT_EQ(trajectory.frames.back()[0],
            (Vec2{-0x1.2ce0bc62bc359p-1, -0x1.cb9285dc0e269p+0}));
  EXPECT_EQ(trajectory.frames.back()[15],
            (Vec2{-0x1.05166d9a89a9ep+2, 0x1.83f4f8c560be4p+1}));
  EXPECT_EQ(trajectory.frames.back()[29],
            (Vec2{-0x1.ab5108f56b9c8p-2, 0x1.a3421a91e1b1p-1}));
}

TEST(GoldenEnsemble, StreamedExperimentBitwiseStable) {
  // The streamed ensemble must regroup exactly as the staged pre-refactor
  // driver did: probe particle 17 of every (frame, sample) slot.
  sops::core::ExperimentConfig experiment(golden_cell_grid_config());
  experiment.samples = 5;
  experiment.threads = 2;
  const sops::core::EnsembleSeries series =
      sops::core::run_experiment(experiment);
  EXPECT_EQ(series.frame_steps, (std::vector<std::size_t>{0, 10, 20, 30}));
  const std::vector<Vec2> probes{
      {0x1.117f5e90f332fp+0, 0x1.a67580abc1304p+1},
      {0x1.d17ad00ca9e25p+1, 0x1.b66e38f5dea82p+0},
      {0x1.398315231a5a5p+1, -0x1.838df774a3c54p+1},
      {-0x1.53280ab0162e8p+0, -0x1.5947af3243c01p+1},
      {-0x1.7ee1bad3bc8e3p+1, 0x1.4c2ce15bd4737p+1},
      {0x1.ee64fad141484p+1, 0x1.2db568b148c96p+2},
      {0x1.45aef60d09815p+2, 0x1.2c20f91570737p+1},
      {0x1.2ebf0cbf4374dp+0, -0x1.5d1a55a26c5abp+2},
      {-0x1.079b8eddce24fp+1, -0x1.83b93f9950576p+2},
      {-0x1.331cb6e46eb3ep+2, 0x1.5e1e107c1211ep+1},
      {0x1.24bfa8c3a9d3fp+2, 0x1.a6f821f62342fp+1},
      {0x1.59566cb4d2a25p+2, 0x1.cf878c425305dp+0},
      {0x1.9a0293df3ac5dp-1, -0x1.a60ab0f18fb6fp+2},
      {-0x1.febc87cc44d06p+0, -0x1.c32cd2dab6023p+2},
      {-0x1.84ffdb79c8c8ep+2, 0x1.cd527d16bac21p+0},
      {0x1.5487af4314204p+2, 0x1.8009a91cd7cb9p-1},
      {0x1.484c5ed7b0cc6p+2, 0x1.e9e333f6d4e8ep-1},
      {0x1.9d724b247f4f4p-1, -0x1.cba17b600fa62p+2},
      {-0x1.fa806fdb2349ap+0, -0x1.c883e3bb1cf33p+2},
      {-0x1.a40fedb5bec96p+2, 0x1.30cd17e5f836ap+0},
  };
  std::size_t probe = 0;
  for (std::size_t f = 0; f < series.frame_count(); ++f) {
    for (std::size_t s = 0; s < series.sample_count(); ++s) {
      EXPECT_EQ(series.frames[f][s][17], probes[probe]) << "f=" << f << " s=" << s;
      ++probe;
    }
  }
}

// ----------------------------------------------- thread-count determinism

TEST(ThreadDeterminism, RunExperimentAutoVsSerialBitwise) {
  sops::sim::SimulationConfig simulation =
      sops::core::presets::fig4_three_type_collective();
  simulation.steps = 10;
  simulation.record_stride = 5;
  sops::core::ExperimentConfig serial(simulation);
  serial.samples = 8;
  serial.threads = 1;
  sops::core::ExperimentConfig automatic = serial;
  automatic.threads = 0;

  const auto a = sops::core::run_experiment(serial);
  const auto b = sops::core::run_experiment(automatic);
  ASSERT_EQ(a.frame_count(), b.frame_count());
  EXPECT_EQ(a.equilibrium_steps, b.equilibrium_steps);
  for (std::size_t f = 0; f < a.frame_count(); ++f) {
    for (std::size_t s = 0; s < a.sample_count(); ++s) {
      for (std::size_t i = 0; i < a.particle_count(); ++i) {
        EXPECT_EQ(a.frames[f][s][i], b.frames[f][s][i]);
      }
    }
  }
}

TEST(ThreadDeterminism, AnalyzerAutoVsSerialBitwise) {
  sops::sim::SimulationConfig simulation =
      sops::core::presets::fig4_three_type_collective();
  simulation.steps = 16;
  simulation.record_stride = 4;
  sops::core::ExperimentConfig experiment(simulation);
  experiment.samples = 12;
  const auto series = sops::core::run_experiment(experiment);

  sops::core::AnalysisOptions serial;
  serial.threads = 1;
  sops::core::AnalysisOptions automatic;
  automatic.threads = 0;
  const auto a = sops::core::analyze_self_organization(series, serial);
  const auto b = sops::core::analyze_self_organization(series, automatic);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t f = 0; f < a.points.size(); ++f) {
    EXPECT_EQ(a.points[f].step, b.points[f].step);
    EXPECT_EQ(a.points[f].multi_information, b.points[f].multi_information);
  }
}

}  // namespace
