// Intra-step parallelism: thread-invariance matrix and golden pins.
//
// The intra-step drift path must be bitwise-identical for any thread count
// and any ParallelPolicy — the dispatch only redistributes which worker
// computes which shard or stripe; every sum keeps its fixed order. These
// tests pin that contract at three levels: raw drift sums, full fixed-seed
// trajectories, and whole recorded ensembles, plus hex-literal golden
// values for the intra-step path at n = 1024 and n = 8192.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/experiment.hpp"
#include "geom/neighbor_backend.hpp"
#include "half_shell_reference.hpp"
#include "rng/samplers.hpp"
#include "sim/drift_kernel.hpp"
#include "sim/parallel_policy.hpp"
#include "sim/simulation.hpp"
#include "support/executor.hpp"

namespace {

using sops::geom::Vec2;
using sops::sim::accumulate_drift;
using sops::sim::ForceLawKind;
using sops::sim::InteractionModel;
using sops::sim::PairParams;
using sops::sim::PairScalingTable;
using sops::sim::ParallelPolicy;
using sops::sim::ParticleSystem;
using sops::sim::resolve_parallel_policy;
using sops::sim::run_simulation;
using sops::sim::SimulationConfig;
using sops::sim::ThreadBudget;
using sops::sim::Trajectory;

constexpr std::size_t kThreadMatrix[] = {1, 2, 3, 8};
constexpr auto kCellGrid = sops::geom::NeighborBackendKind::kCellGrid;

ParticleSystem random_system(std::size_t n, double radius, std::size_t types,
                             std::uint64_t seed) {
  sops::rng::Xoshiro256 engine(seed);
  std::vector<Vec2> positions;
  std::vector<sops::sim::TypeId> type_ids;
  for (std::size_t i = 0; i < n; ++i) {
    positions.push_back(sops::rng::uniform_disc(engine, radius));
    type_ids.push_back(static_cast<sops::sim::TypeId>(i % types));
  }
  return {std::move(positions), std::move(type_ids)};
}

InteractionModel spring_model(std::size_t types) {
  return InteractionModel(ForceLawKind::kSpring, types,
                          PairParams{1.0, 2.0, 1.0, 1.0});
}

// ------------------------------------------------------ drift invariance

TEST(IntraStepInvariance, DriftBitwiseAcrossThreadCounts) {
  const auto system = random_system(500, 17.0, 3, 91);
  const auto model = spring_model(3);
  const PairScalingTable table(model);
  for (const sops::geom::NeighborBackendKind kind :
       {sops::geom::NeighborBackendKind::kAllPairs,
        sops::geom::NeighborBackendKind::kCellGrid,
        sops::geom::NeighborBackendKind::kDelaunay}) {
    std::vector<Vec2> reference;
    {
      sops::geom::NeighborBackend backend(kind);
      accumulate_drift(system, table, 3.0, reference, backend,
                       sops::support::serial_executor());
    }
    for (const std::size_t threads : kThreadMatrix) {
      sops::geom::NeighborBackend backend(kind);
      sops::support::TaskPool pool(threads);
      std::vector<Vec2> sharded;
      accumulate_drift(system, table, 3.0, sharded, backend, pool.executor());
      ASSERT_EQ(reference.size(), sharded.size());
      for (std::size_t i = 0; i < reference.size(); ++i) {
        ASSERT_EQ(reference[i], sharded[i])
            << "kind " << static_cast<int>(kind) << " threads " << threads
            << " i " << i;
      }
    }
  }
}

TEST(IntraStepInvariance, PooledDriftBitwiseMatchesSerial) {
  // The pooled dispatch against the serial loop across pool widths —
  // including widths far above the core count and a worker-starved pool
  // against a wide shard partition.
  const auto system = random_system(700, 19.0, 3, 123);
  const auto model = spring_model(3);
  const PairScalingTable table(model);
  std::vector<Vec2> reference;
  {
    sops::geom::NeighborBackend backend(kCellGrid);
    accumulate_drift(system, table, 3.0, reference, backend,
                     sops::support::serial_executor());
  }
  for (const std::size_t width : {2u, 3u, 8u, 32u}) {
    sops::support::TaskPool pool(width);
    sops::geom::NeighborBackend backend(kCellGrid);
    std::vector<Vec2> pooled;
    accumulate_drift(system, table, 3.0, pooled, backend, pool.executor());
    ASSERT_EQ(reference.size(), pooled.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(reference[i], pooled[i]) << "width " << width << " i " << i;
    }
  }
}

TEST(IntraStepInvariance, DriftAfterPartitionedThrowIsBitwiseUnaffected) {
  // Engine-shaped exception safety: the sample × step fan-out
  // (run_partitioned lending inner executors) throws in several chunks at
  // once — the shape of a failing sync_samples aborting a shard run. The
  // pool must come back clean, and a real drift dispatch on the *same*
  // pool must match the serial bits exactly (a worker wedged or a shard
  // skipped by the aborted round would show up here).
  const auto system = random_system(600, 18.0, 3, 55);
  const auto model = spring_model(3);
  const PairScalingTable table(model);
  std::vector<Vec2> reference;
  {
    sops::geom::NeighborBackend backend(kCellGrid);
    accumulate_drift(system, table, 3.0, reference, backend,
                     sops::support::serial_executor());
  }
  sops::support::TaskPool pool(6);
  EXPECT_THROW(
      pool.run_partitioned(3, 2,
                           [&](std::size_t k, sops::support::Executor& inner) {
                             sops::geom::NeighborBackend backend(kCellGrid);
                             std::vector<Vec2> scratch;
                             accumulate_drift(system, table, 3.0, scratch,
                                              backend, inner);
                             if (k != 0) {
                               throw std::runtime_error("chunk aborted");
                             }
                           }),
      std::runtime_error);
  pool.run_partitioned(2, 3, [&](std::size_t,
                                 sops::support::Executor& inner) {
    sops::geom::NeighborBackend backend(kCellGrid);
    std::vector<Vec2> pooled;
    accumulate_drift(system, table, 3.0, pooled, backend, inner);
    ASSERT_EQ(reference.size(), pooled.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(reference[i], pooled[i]) << i;
    }
  });
}

TEST(IntraStepInvariance, WorkerStarvedPoolMatchesReferenceOnManyStripes) {
  // More stripes than pool workers: stripes queue and drain through the
  // cap; the fixed stripe partition (not the worker count) fixes the bits.
  // The reference walks the half-shell order in plain scalar code without
  // the grid, and every width must reproduce it.
  const auto system = random_system(900, 40.0, 2, 77);
  const auto model = spring_model(2);
  const PairScalingTable table(model);
  const std::vector<Vec2> reference =
      sops::testing::half_shell_reference(system, table, 3.0, false);

  sops::geom::CellGridBackend backend;
  backend.rebuild(system.lanes(), 3.0);
  std::vector<sops::geom::CellGrid::Stripe> stripes;
  backend.grid().stripes(sops::sim::kDriftStripeColumns, stripes);
  ASSERT_GT(stripes.size(), 4u);
  for (const std::size_t width : {1u, 2u}) {
    sops::support::TaskPool pool(width);
    sops::geom::NeighborBackend pooled_backend(kCellGrid);
    std::vector<Vec2> pooled;
    accumulate_drift(system, table, 3.0, pooled, pooled_backend,
                     pool.executor());
    ASSERT_EQ(pooled.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(reference[i], pooled[i]) << "width " << width << " i " << i;
    }
  }
}

TEST(IntraStepInvariance, StripePartitionCoversEveryCellOnce) {
  // Stripes tile the cells in id order; a halo is exactly the next
  // stripe's first column, present only when that column is adjacent.
  const auto system = random_system(300, 11.0, 2, 5);
  sops::geom::CellGridBackend backend;
  backend.rebuild(system.lanes(), 3.0);
  const auto& grid = backend.grid();
  const auto starts = grid.bucket_starts();
  const auto order = grid.bucket_entries();
  const auto column = [&](std::size_t cell) {
    return std::floor(system.x[order[starts[cell]]] / 3.0);
  };
  std::vector<sops::geom::CellGrid::Stripe> stripes;
  for (const std::size_t columns : {1u, 2u, 3u, 4u, 64u}) {
    grid.stripes(columns, stripes);
    ASSERT_FALSE(stripes.empty());
    EXPECT_EQ(stripes.front().cell_begin, 0u);
    EXPECT_EQ(stripes.back().cell_end, grid.cell_count());
    for (std::size_t k = 0; k < stripes.size(); ++k) {
      const auto& s = stripes[k];
      ASSERT_LT(s.cell_begin, s.cell_end);
      if (k > 0) {
        EXPECT_EQ(s.cell_begin, stripes[k - 1].cell_end);
      }
      EXPECT_LE(column(s.cell_end - 1) - column(s.cell_begin),
                static_cast<double>(columns) - 1.0);
      if (s.halo_end == s.cell_end) continue;
      ASSERT_LT(k + 1, stripes.size());
      EXPECT_LE(s.halo_end, stripes[k + 1].cell_end);
      EXPECT_EQ(column(s.cell_end), column(s.cell_end - 1) + 1.0);
      for (std::size_t c = s.cell_end; c < s.halo_end; ++c) {
        EXPECT_EQ(column(c), column(s.cell_end)) << c;
      }
    }
  }
}

// ------------------------------------------------- trajectory invariance

SimulationConfig matrix_config() {
  SimulationConfig config(spring_model(3));
  config.types = sops::sim::evenly_distributed_types(260, 3);
  config.cutoff_radius = 3.0;
  config.init_disc_radius = 12.0;
  config.steps = 12;
  config.record_stride = 4;
  config.seed = 314;
  return config;
}

void expect_bitwise_equal(const Trajectory& a, const Trajectory& b) {
  ASSERT_EQ(a.frames.size(), b.frames.size());
  EXPECT_EQ(a.residual_norms, b.residual_norms);
  EXPECT_EQ(a.equilibrium_step, b.equilibrium_step);
  for (std::size_t f = 0; f < a.frames.size(); ++f) {
    ASSERT_EQ(a.frames[f].size(), b.frames[f].size());
    for (std::size_t i = 0; i < a.frames[f].size(); ++i) {
      ASSERT_EQ(a.frames[f][i], b.frames[f][i]) << "f " << f << " i " << i;
    }
  }
}

TEST(IntraStepInvariance, TrajectoriesBitwiseAcrossThreadsAndPolicies) {
  const Trajectory reference = run_simulation(matrix_config());
  for (const ParallelPolicy policy :
       {ParallelPolicy::kAuto, ParallelPolicy::kAcrossSamples,
        ParallelPolicy::kWithinStep, ParallelPolicy::kHybrid}) {
    for (const std::size_t threads : kThreadMatrix) {
      SimulationConfig config = matrix_config();
      config.parallel_policy = policy;
      config.threads = threads;
      expect_bitwise_equal(reference, run_simulation(config));
    }
  }
}

TEST(IntraStepInvariance, EnsemblesBitwiseAcrossPolicies) {
  sops::core::ExperimentConfig reference_config(matrix_config());
  reference_config.samples = 6;
  reference_config.threads = 1;
  reference_config.parallel = ParallelPolicy::kAcrossSamples;
  const auto reference = sops::core::run_experiment(reference_config);

  for (const ParallelPolicy policy :
       {ParallelPolicy::kAuto, ParallelPolicy::kAcrossSamples,
        ParallelPolicy::kWithinStep, ParallelPolicy::kHybrid}) {
    for (const std::size_t threads : kThreadMatrix) {
      sops::core::ExperimentConfig config = reference_config;
      config.parallel = policy;
      config.threads = threads;
      const auto series = sops::core::run_experiment(config);
      ASSERT_EQ(series.frame_count(), reference.frame_count());
      EXPECT_EQ(series.equilibrium_steps, reference.equilibrium_steps);
      for (std::size_t f = 0; f < reference.frame_count(); ++f) {
        for (std::size_t s = 0; s < reference.sample_count(); ++s) {
          for (std::size_t i = 0; i < reference.particle_count(); ++i) {
            ASSERT_EQ(series.frames[f][s][i], reference.frames[f][s][i])
                << "f " << f << " s " << s << " i " << i;
          }
        }
      }
    }
  }
}

TEST(ExecutorLifecycle, ConsecutiveExperimentsAreBitwiseIdentical) {
  // Each run_experiment sizes and tears down its own TaskPool; back-to-back
  // experiments (and their pools) must neither interfere nor drift.
  sops::core::ExperimentConfig config(matrix_config());
  config.samples = 5;
  config.threads = 4;
  config.parallel = ParallelPolicy::kHybrid;
  const auto first = sops::core::run_experiment(config);
  const auto second = sops::core::run_experiment(config);
  ASSERT_EQ(first.frame_count(), second.frame_count());
  EXPECT_EQ(first.equilibrium_steps, second.equilibrium_steps);
  for (std::size_t f = 0; f < first.frame_count(); ++f) {
    for (std::size_t s = 0; s < first.sample_count(); ++s) {
      for (std::size_t i = 0; i < first.particle_count(); ++i) {
        ASSERT_EQ(first.frames[f][s][i], second.frames[f][s][i])
            << "f " << f << " s " << s << " i " << i;
      }
    }
  }
}

TEST(ExecutorLifecycle, WorkspacePoolPersistsAcrossRuns) {
  // A reused workspace keeps its owned pool between runs; repeated runs
  // through one workspace must match fresh-workspace runs bit for bit.
  SimulationConfig config = matrix_config();
  config.parallel_policy = ParallelPolicy::kWithinStep;
  config.threads = 4;
  const Trajectory fresh = run_simulation(config);
  sops::sim::SimulationWorkspace workspace;
  const Trajectory first = run_simulation(config, workspace);
  const Trajectory second = run_simulation(config, workspace);
  expect_bitwise_equal(fresh, first);
  expect_bitwise_equal(fresh, second);
}

// --------------------------------------------------- policy resolution

TEST(ParallelPolicyResolution, BudgetNeverExceedsThreadsAndNeverNests) {
  for (const std::size_t n : {16u, 2048u, 16384u}) {
    for (const std::size_t m : {1u, 2u, 8u, 500u}) {
      for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
        for (const ParallelPolicy policy :
             {ParallelPolicy::kAuto, ParallelPolicy::kAcrossSamples,
              ParallelPolicy::kWithinStep, ParallelPolicy::kHybrid}) {
          const ThreadBudget budget =
              resolve_parallel_policy(policy, n, m, threads);
          EXPECT_GE(budget.sample_threads, 1u);
          EXPECT_GE(budget.step_threads, 1u);
          EXPECT_LE(budget.sample_threads * budget.step_threads, threads);
        }
      }
    }
  }
}

TEST(ParallelPolicyResolution, AutoPicksTheExpectedAxis) {
  // Paper-sized ensemble: samples swallow the whole budget.
  EXPECT_EQ(resolve_parallel_policy(ParallelPolicy::kAuto, 50, 500, 8)
                .sample_threads,
            8u);
  EXPECT_EQ(
      resolve_parallel_policy(ParallelPolicy::kAuto, 50, 500, 8).step_threads,
      1u);
  // Single huge collective: the budget moves inside the step.
  EXPECT_EQ(resolve_parallel_policy(ParallelPolicy::kAuto, 16384, 1, 8)
                .step_threads,
            8u);
  // Small single collective: serial — the fork would cost more than it buys.
  EXPECT_EQ(
      resolve_parallel_policy(ParallelPolicy::kAuto, 256, 1, 8).step_threads,
      1u);
  // The boundary: a single collective shards its steps from exactly
  // kIntraStepMinParticles on, whether alone or as a few samples.
  constexpr std::size_t kMin = sops::sim::kIntraStepMinParticles;
  EXPECT_EQ(resolve_parallel_policy(ParallelPolicy::kAuto, kMin - 1, 1, 4)
                .step_threads,
            1u);
  EXPECT_EQ(
      resolve_parallel_policy(ParallelPolicy::kAuto, kMin, 1, 4).step_threads,
      4u);
  EXPECT_EQ(resolve_parallel_policy(ParallelPolicy::kAuto, kMin - 1, 2, 4)
                .sample_threads,
            2u);
  EXPECT_EQ(resolve_parallel_policy(ParallelPolicy::kAuto, kMin - 1, 2, 4)
                .step_threads,
            1u);
  EXPECT_EQ(
      resolve_parallel_policy(ParallelPolicy::kAuto, kMin, 2, 4).step_threads,
      2u);
  // n = 1024, where a sharded step measured slower than the serial one,
  // runs serially.
  EXPECT_EQ(
      resolve_parallel_policy(ParallelPolicy::kAuto, 1024, 1, 4).step_threads,
      1u);
  // Few samples of a huge collective: hybrid split.
  const ThreadBudget hybrid =
      resolve_parallel_policy(ParallelPolicy::kAuto, 16384, 2, 8);
  EXPECT_EQ(hybrid.sample_threads, 2u);
  EXPECT_EQ(hybrid.step_threads, 4u);
  // Hybrid prefers the split that strands the least budget: m = 5 samples
  // over 8 threads runs 4×2, not 5×1.
  const ThreadBudget uneven =
      resolve_parallel_policy(ParallelPolicy::kAuto, 16384, 5, 8);
  EXPECT_EQ(uneven.sample_threads, 4u);
  EXPECT_EQ(uneven.step_threads, 2u);
}

// ------------------------------------------------------- golden (bitwise)

// Golden values for the intra-step path at n = 1024, captured from the
// serial engine (threads = 1): the pooled run must reproduce them bit for
// bit at every tested thread count. Any change to the pair summation order,
// the dispatch leaking into it, or RNG draw order lands here.
// Both sharded pins were re-captured with the counter-based step noise
// (rng/step_noise.hpp); their frame-0 residuals did not move. Both moved
// again when the cell grid's drift began computing each pair once.

SimulationConfig golden_sharded_config() {
  SimulationConfig config(spring_model(3));
  config.types = sops::sim::evenly_distributed_types(1024, 3);
  config.cutoff_radius = 3.0;
  config.init_disc_radius = 48.0;
  config.steps = 5;
  config.record_stride = 5;
  config.seed = 2024;
  config.parallel_policy = ParallelPolicy::kWithinStep;
  return config;
}

TEST(GoldenSharded, N1024BitwiseStableAcrossThreadCounts) {
  const std::vector<double> residuals{
      0x1.1f20db8c0a9e9p+10,
      0x1.36f287789ca3dp+9,
  };
  const Vec2 expected_p0{0x1.1f7a02b6730cfp+5, -0x1.7d673307eb8ap+3};
  const Vec2 expected_p511{0x1.8f5e6469cac77p+3, -0x1.e02e71f8061b6p+3};
  const Vec2 expected_p1023{-0x1.bc2a86baf4291p+1, -0x1.7959c84d3dc7p+5};

  for (const std::size_t threads : kThreadMatrix) {
    SimulationConfig config = golden_sharded_config();
    config.threads = threads;
    const Trajectory trajectory = run_simulation(config);
    ASSERT_EQ(trajectory.residual_norms.size(), residuals.size());
    for (std::size_t f = 0; f < residuals.size(); ++f) {
      EXPECT_EQ(trajectory.residual_norms[f], residuals[f])
          << "threads " << threads << " frame " << f;
    }
    ASSERT_EQ(trajectory.frames.back().size(), 1024u);
    EXPECT_EQ(trajectory.frames.back()[0], expected_p0) << threads;
    EXPECT_EQ(trajectory.frames.back()[511], expected_p511) << threads;
    EXPECT_EQ(trajectory.frames.back()[1023], expected_p1023) << threads;
  }
}

// The double-Gaussian law (F², Eq. 8) with σ = 1, τ = 2: a repulsive force
// that is nonzero at every in-range distance, so unlike a σ = τ collective
// (F² ≡ 0) every step's positions carry force bits. Re-pinned when F² moved
// to the lane exp on d² with survivor compaction (the same values under the
// scalar, generic and AVX2 kernels).
SimulationConfig golden_double_gaussian_config() {
  SimulationConfig config(InteractionModel(ForceLawKind::kDoubleGaussian, 3,
                                           PairParams{1.0, 2.0, 1.0, 2.0}));
  config.types = sops::sim::evenly_distributed_types(8192, 3);
  config.cutoff_radius = 3.0;
  config.init_disc_radius = 64.0;
  config.neighbor_mode = sops::sim::NeighborMode::kCellGrid;
  config.steps = 40;
  config.record_stride = 10;
  config.seed = 8192;
  config.parallel_policy = ParallelPolicy::kWithinStep;
  return config;
}

TEST(GoldenSharded, N8192DoubleGaussianBitwiseStableAcrossWidths) {
  const std::vector<double> residuals{
      0x1.655113ece506ap+13, 0x1.afe349ec8e7c4p+12, 0x1.d091fef159eeap+12,
      0x1.e93e8033ad5cdp+12, 0x1.001ebbe9bea8bp+13,
  };
  const Vec2 expected_p0{0x1.04c07a68b9218p+3, 0x1.caceefcc2aaep+3};
  const Vec2 expected_p4095{-0x1.0bb69a929832ep+5, -0x1.b3642ed2bd7ap+5};
  const Vec2 expected_p8191{-0x1.54486751e4d82p+3, -0x1.9d552df022afcp+4};

  for (const std::size_t threads : {1u, 2u, 4u}) {
    SimulationConfig config = golden_double_gaussian_config();
    config.threads = threads;
    const Trajectory trajectory = run_simulation(config);
    ASSERT_EQ(trajectory.residual_norms.size(), residuals.size());
    for (std::size_t f = 0; f < residuals.size(); ++f) {
      EXPECT_EQ(trajectory.residual_norms[f], residuals[f])
          << "threads " << threads << " frame " << f;
    }
    ASSERT_EQ(trajectory.frames.back().size(), 8192u);
    EXPECT_EQ(trajectory.frames.back()[0], expected_p0) << threads;
    EXPECT_EQ(trajectory.frames.back()[4095], expected_p4095) << threads;
    EXPECT_EQ(trajectory.frames.back()[8191], expected_p8191) << threads;
  }
}

}  // namespace
