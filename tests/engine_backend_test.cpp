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
#include "geom/verlet_list.hpp"
#include "rng/samplers.hpp"
#include "sim/simulation.hpp"
#include "sim/workspace.hpp"
#include "support/error.hpp"

namespace {

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
  const auto model = spring_model(1);
  const double cutoff = 3.0;

  std::vector<Vec2> all_pairs;
  std::vector<Vec2> cell_grid;
  std::vector<Vec2> delaunay;
  accumulate_drift(system, model, cutoff, all_pairs, NeighborMode::kAllPairs);
  accumulate_drift(system, model, cutoff, cell_grid, NeighborMode::kCellGrid);
  accumulate_drift(system, model, cutoff, delaunay, NeighborMode::kDelaunay);
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
// summation order, and RNG draw order are all part of the contract.

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
      {0x1.1ef7ea1269a6cp-1, 0x1.039635f182f12p+0},
      {0x1.b30772ec513c1p+0, -0x1.c15eb31a3c5a7p-3},
      {0x1.93cbba609fbd4p+0, 0x1.10ac55839f08ap+0},
      {0x1.21e39419821afp-1, 0x1.996c06222763ep+0},
      {-0x1.aa53b88625095p-1, -0x1.f45420e80eb3ep-2},
      {-0x1.f94ffbcabf7bdp-1, 0x1.397d89a52ab13p-1},
      {0x1.402ffce3cfffp-2, -0x1.947adf570a67bp-1},
      {0x1.2b4613ce2b995p+0, -0x1.a1f6fa7b962cp-1},
      {-0x1.b28464bf6b676p-4, -0x1.38aaf89b5ba66p+0},
      {-0x1.5e3609020d1f6p-1, 0x1.4cb344597857fp+0},
      {0x1.2ef94d63d1f95p+0, 0x1.8f085cc91076ap-2},
      {-0x1.36fb0a18c38acp-3, 0x1.1ff4014c50894p-2},
  };
  const std::vector<double> residuals{
      0x1.0e6241ffbcadfp+7, 0x1.97f3f733159a7p+2, 0x1.bcd7a5d121048p+2,
      0x1.6696580c56cbp+2,  0x1.86a5dc63f5533p+2, 0x1.209449f5953d2p+2,
      0x1.28153089e6437p+2,
  };
  expect_bitwise(run_simulation(golden_all_pairs_config()), expected, residuals);
}

TEST(GoldenTrajectory, CellGridBitwiseStable) {
  // Spot-check a spread of particles of the 80-particle collective plus the
  // full residual series (any drift or RNG divergence reaches both).
  const Trajectory trajectory = run_simulation(golden_cell_grid_config());
  const std::vector<double> residuals{
      0x1.ef0063549657bp+9,
      0x1.bc4ce24c0d49dp+10,
      0x1.446a80132d5fp+10,
      0x1.9e60dbdf36411p+10,
  };
  ASSERT_EQ(trajectory.residual_norms.size(), residuals.size());
  for (std::size_t f = 0; f < residuals.size(); ++f) {
    EXPECT_EQ(trajectory.residual_norms[f], residuals[f]) << f;
  }
  ASSERT_EQ(trajectory.frames.back().size(), 80u);
  EXPECT_EQ(trajectory.frames.back()[0],
            (Vec2{-0x1.527a0b2e1c64ep+1, -0x1.2d79ca63a7c5bp+2}));
  EXPECT_EQ(trajectory.frames.back()[17],
            (Vec2{0x1.427a2594312e5p+2, 0x1.d482d2ca92d0bp-1}));
  EXPECT_EQ(trajectory.frames.back()[40],
            (Vec2{0x1.07a2fb4248dddp+0, 0x1.44ad91e17f0e2p-1}));
  EXPECT_EQ(trajectory.frames.back()[63],
            (Vec2{0x1.1a1c2c8b3d239p-2, 0x1.1c71623d23537p+2}));
  EXPECT_EQ(trajectory.frames.back()[79],
            (Vec2{-0x1.e9f1b0e9c2d86p+0, 0x1.09a31af750a8bp+2}));
  EXPECT_FALSE(trajectory.equilibrium_step.has_value());
}

TEST(GoldenTrajectory, DelaunayBitwiseStable) {
  const Trajectory trajectory = run_simulation(golden_delaunay_config());
  const std::vector<double> residuals{
      0x1.2549eecdc823p+6,  0x1.1f4bfb2080183p+5, 0x1.8c1dacd14e873p+4,
      0x1.3f6fec88b2745p+4, 0x1.26582d4d2b597p+4, 0x1.14ca330459fd1p+4,
  };
  ASSERT_EQ(trajectory.residual_norms.size(), residuals.size());
  for (std::size_t f = 0; f < residuals.size(); ++f) {
    EXPECT_EQ(trajectory.residual_norms[f], residuals[f]) << f;
  }
  ASSERT_EQ(trajectory.frames.back().size(), 30u);
  EXPECT_EQ(trajectory.frames.back()[0],
            (Vec2{-0x1.a7975d073be9cp-1, -0x1.178f6300dba9ep+1}));
  EXPECT_EQ(trajectory.frames.back()[15],
            (Vec2{-0x1.0f159b7fe3df8p+2, 0x1.70e0de5b92894p+1}));
  EXPECT_EQ(trajectory.frames.back()[29],
            (Vec2{-0x1.12079cdbf7bbfp-2, 0x1.ea0cb49d994bdp-1}));
}

TEST(GoldenTrajectory, VerletSkinBitwiseStable) {
  // One case per Verlet eval path: the spring law takes the chunked
  // indexed kernel, the double-Gaussian filter → packed. Each run must both
  // skip rebuilds (quiet steps on the cached list) and rebuild after its
  // first build, so both kinds of step are pinned.
  const auto check = [](const SimulationConfig& config,
                        const std::vector<double>& residuals,
                        const std::vector<std::pair<std::size_t, Vec2>>& probes) {
    SimulationWorkspace workspace;
    const Trajectory trajectory = run_simulation(config, workspace);
    const sops::geom::VerletListBackend* verlet = workspace.verlet_backend();
    ASSERT_NE(verlet, nullptr);
    EXPECT_LT(verlet->stats().builds, verlet->stats().steps);
    EXPECT_GE(verlet->stats().builds, 2u);
    ASSERT_EQ(trajectory.residual_norms.size(), residuals.size());
    for (std::size_t f = 0; f < residuals.size(); ++f) {
      EXPECT_EQ(trajectory.residual_norms[f], residuals[f]) << f;
    }
    ASSERT_EQ(trajectory.frames.back().size(), config.types.size());
    for (const auto& [i, expected] : probes) {
      EXPECT_EQ(trajectory.frames.back()[i], expected) << "particle " << i;
    }
  };

  InteractionModel spring(ForceLawKind::kSpring, 3,
                          PairParams{1.0, 2.5, 1.0, 1.0});
  spring.set_r(0, 1, 3.5);
  SimulationConfig spring_config(std::move(spring));
  spring_config.types = sops::sim::evenly_distributed_types(40, 3);
  spring_config.cutoff_radius = 4.0;
  spring_config.init_disc_radius = 6.0;
  spring_config.neighbor_mode = NeighborMode::kVerletSkin;
  spring_config.steps = 60;
  spring_config.record_stride = 20;
  spring_config.seed = 23;
  check(spring_config,
        {0x1.50043370bfd84p+7, 0x1.98f3650e95d1ep+5, 0x1.00e300e0c2d47p+6,
         0x1.08d213723e928p+5},
        {{0, Vec2{-0x1.0f45ddd5a940cp+0, 0x1.bdb22f90c5074p+0}},
         {13, Vec2{-0x1.03cddfbe6e3fbp-1, 0x1.0e326dce5558bp+1}},
         {26, Vec2{-0x1.d2d98c8643744p+1, -0x1.13c3c1309b778p+0}},
         {39, Vec2{-0x1.62dc67e0713b5p+0, 0x1.600da468f72fbp-2}}});

  InteractionModel gaussian(ForceLawKind::kDoubleGaussian, 2,
                            PairParams{5.0, 1.0, 1.0, 4.0});
  gaussian.set_k(0, 1, 3.0);
  SimulationConfig gaussian_config(std::move(gaussian));
  gaussian_config.types = sops::sim::evenly_distributed_types(60, 2);
  gaussian_config.cutoff_radius = 5.0;
  gaussian_config.init_disc_radius = 4.0;
  gaussian_config.neighbor_mode = NeighborMode::kVerletSkin;
  gaussian_config.steps = 40;
  gaussian_config.record_stride = 10;
  gaussian_config.seed = 11;
  check(gaussian_config,
        {0x1.d92a731943ab5p+11, 0x1.c25f4750b9bc8p+7, 0x1.c1f826a92cb58p+6,
         0x1.6ba19bbc37881p+6, 0x1.5f7a7e380d455p+6},
        {{0, Vec2{0x1.19629bd723cd2p+3, 0x1.19e16e9fb7f5ap+3}},
         {21, Vec2{-0x1.659e9d1ca1cc3p+2, -0x1.295b2304d2ec7p+1}},
         {38, Vec2{0x1.ab9fa452d175ep+1, -0x1.f2a2b924269dcp-2}},
         {59, Vec2{-0x1.1d4cd2f402116p+0, 0x1.794172e98a876p+1}}});
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
      {0x1.0a5fb91cbc908p+2, 0x1.105e7c51eb708p+2},
      {0x1.47c927a2ac31ap+2, 0x1.357598fbf1ef1p+1},
      {0x1.65a0ed13f7db9p+0, -0x1.6f7973512e719p+2},
      {-0x1.ce0d745ef57bp+0, -0x1.918d78705d808p+2},
      {-0x1.2b8057e1d991ap+2, 0x1.45cc23c2ead86p+1},
      {0x1.472d7aee81399p+2, 0x1.06153dda61745p+1},
      {0x1.4a7fa99903729p+2, 0x1.1baf3f788fa1dp+1},
      {0x1.eabd5b9ffda19p-1, -0x1.9fff980f49079p+2},
      {-0x1.fd09a7717d036p+0, -0x1.ae102b6889e2fp+2},
      {-0x1.55cb3cf5cb395p+2, 0x1.32ae2c65c7f74p+0},
      {0x1.427a2594312e5p+2, 0x1.d482d2ca92d0bp-1},
      {0x1.527d8b51186a1p+2, 0x1.e660acdfde172p+0},
      {0x1.68bf0d2647b8ep-1, -0x1.bbf25e432426cp+2},
      {-0x1.d9c73930a3427p+0, -0x1.a9b6321a22c37p+2},
      {-0x1.482ad8e7f4ceap+2, 0x1.ccf8c404fd0a1p-1},
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
