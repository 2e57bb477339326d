// Durable shard recordings through the full engine: persist-mode stores
// survive destruction and reopen bitwise-intact, a --resume run redoes
// exactly the samples whose completion bits are clear (and nothing else),
// N disjoint shards merge into a recording bitwise-identical to a single
// uninterrupted run, and every mismatched-manifest case is rejected with
// an error instead of silently recording garbage. Named engine_* so the
// TSan CI job covers the concurrent sync/mark_complete path.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/frame_store.hpp"
#include "core/presets.hpp"
#include "core/shard.hpp"
#include "io/shard_manifest.hpp"
#include "support/error.hpp"

namespace {

using sops::core::EnsembleSeries;
using sops::core::ExperimentConfig;
using sops::core::FrameStore;
using sops::core::FrameStoreOptions;
using sops::core::run_experiment;
using sops::io::ShardManifest;
using sops::io::ShardManifestFile;

ExperimentConfig small_experiment() {
  sops::sim::SimulationConfig simulation =
      sops::core::presets::fig4_three_type_collective();
  simulation.steps = 12;
  simulation.record_stride = 4;
  ExperimentConfig experiment(simulation);
  experiment.samples = 8;
  return experiment;
}

// A test-unique shard path with no leftovers: the data file is created
// O_EXCL, so stale files from an earlier test run must go first.
std::string fresh_shard_path(const std::string& name) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / name).string();
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".manifest");
  return path;
}

ExperimentConfig shard_experiment(const std::string& path,
                                  std::size_t index = 0,
                                  std::size_t count = 1,
                                  bool resume = false) {
  ExperimentConfig experiment = small_experiment();
  experiment.shard.path = path;
  experiment.shard.index = index;
  experiment.shard.count = count;
  experiment.shard.resume = resume;
  return experiment;
}

bool stores_bitwise_equal(const EnsembleSeries& a, const EnsembleSeries& b) {
  if (a.frame_count() != b.frame_count() ||
      a.sample_count() != b.sample_count() ||
      a.particle_count() != b.particle_count()) {
    return false;
  }
  for (std::size_t f = 0; f < a.frame_count(); ++f) {
    for (std::size_t s = 0; s < a.sample_count(); ++s) {
      const auto lhs = a.frames.sample(f, s);
      const auto rhs = b.frames.sample(f, s);
      if (std::memcmp(lhs.data(), rhs.data(), lhs.size_bytes()) != 0) {
        return false;
      }
    }
  }
  return true;
}

TEST(ShardStore, PersistModeKeepsAndReopensTheFile) {
  const std::string path = fresh_shard_path("persist_lifecycle.shard");
  {
    FrameStoreOptions options;
    options.shard_path = path;
    FrameStore store(3, 2, 16, options);
    for (std::size_t f = 0; f < 3; ++f) {
      for (std::size_t s = 0; s < 2; ++s) {
        auto slot = store.sample_slot(f, s);
        for (std::size_t i = 0; i < slot.size(); ++i) {
          slot[i] = {static_cast<double>(f * 100 + s * 10 + i),
                     -static_cast<double>(i)};
        }
      }
    }
  }
  // Unlike scratch spill, the shard survives its store.
  ASSERT_TRUE(std::filesystem::exists(path));

  FrameStoreOptions reopen;
  reopen.shard_path = path;
  reopen.open_existing = true;
  FrameStore store(3, 2, 16, reopen);
  for (std::size_t f = 0; f < 3; ++f) {
    for (std::size_t s = 0; s < 2; ++s) {
      const auto slot = store.sample(f, s);
      for (std::size_t i = 0; i < slot.size(); ++i) {
        ASSERT_EQ(slot[i].x, static_cast<double>(f * 100 + s * 10 + i));
        ASSERT_EQ(slot[i].y, -static_cast<double>(i));
      }
    }
  }
  std::filesystem::remove(path);
}

TEST(ShardStore, ReopenRejectsWrongGeometry) {
  const std::string path = fresh_shard_path("persist_geometry.shard");
  {
    FrameStoreOptions options;
    options.shard_path = path;
    FrameStore store(3, 2, 16, options);
  }
  FrameStoreOptions reopen;
  reopen.shard_path = path;
  reopen.open_existing = true;
  // A different F·m·n payload means the file cannot be this experiment's
  // recording — size validation refuses rather than mapping garbage.
  EXPECT_THROW(FrameStore(3, 2, 17, reopen), sops::Error);
  EXPECT_THROW(FrameStore(4, 2, 16, reopen), sops::Error);
  std::filesystem::remove(path);
}

TEST(ShardStore, FreshShardRefusesToClobberAnExistingOne) {
  const std::string path = fresh_shard_path("persist_noclobber.shard");
  FrameStoreOptions options;
  options.shard_path = path;
  { FrameStore store(3, 2, 16, options); }
  // Same path without open_existing: O_EXCL must refuse — the file may be
  // a completed recording whose manifest got lost.
  EXPECT_THROW(FrameStore(3, 2, 16, options), sops::Error);
  std::filesystem::remove(path);
}

TEST(ShardStore, SingleShardRunMatchesHeapRun) {
  const std::string path = fresh_shard_path("single_shard.shard");
  const EnsembleSeries heap = run_experiment(small_experiment());
  const EnsembleSeries sharded = run_experiment(shard_experiment(path));
  EXPECT_TRUE(stores_bitwise_equal(heap, sharded));
  EXPECT_EQ(heap.equilibrium_steps, sharded.equilibrium_steps);
  EXPECT_EQ(sharded.resumed_samples, 0u);
  ASSERT_TRUE(std::filesystem::exists(path + ".manifest"));
  EXPECT_TRUE(ShardManifestFile::load(path + ".manifest").all_complete());
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".manifest");
}

TEST(ShardStore, ResumeOnCompleteShardRunsNothingAndMatches) {
  const std::string path = fresh_shard_path("resume_complete.shard");
  const EnsembleSeries first = run_experiment(shard_experiment(path));
  // Resuming an all-complete shard is the "analyze a recording" path:
  // zero samples simulated, the bytes come straight off the mapped file.
  const EnsembleSeries resumed =
      run_experiment(shard_experiment(path, 0, 1, /*resume=*/true));
  EXPECT_EQ(resumed.resumed_samples, resumed.sample_count());
  EXPECT_TRUE(stores_bitwise_equal(first, resumed));
  EXPECT_EQ(first.equilibrium_steps, resumed.equilibrium_steps);
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".manifest");
}

TEST(ShardStore, ResumeRedoesClearedSamplesBitwiseIdentically) {
  const std::string path = fresh_shard_path("resume_partial.shard");
  const std::string manifest_path = path + ".manifest";
  const EnsembleSeries reference = run_experiment(small_experiment());
  (void)run_experiment(shard_experiment(path));

  // Simulate a crash that lost samples 2 and 5: clear their completion
  // bits and scribble over their on-disk extents — resume must regenerate
  // exactly those bytes and leave every other sample untouched.
  ShardManifest crashed = ShardManifestFile::load(manifest_path);
  crashed.completed[2 / 64] &= ~(std::uint64_t{1} << (2 % 64));
  crashed.completed[5 / 64] &= ~(std::uint64_t{1} << (5 % 64));
  crashed.equilibrium_steps[2] = sops::io::kNoEquilibriumStep;
  crashed.equilibrium_steps[5] = sops::io::kNoEquilibriumStep;
  { auto rewritten = ShardManifestFile::create(manifest_path, crashed); }
  {
    const std::size_t n = reference.particle_count();
    const std::size_t samples = reference.sample_count();
    const std::size_t row_bytes = n * sizeof(sops::geom::Vec2);
    std::fstream data(path, std::ios::binary | std::ios::in | std::ios::out);
    const std::vector<char> garbage(row_bytes, '\x5a');
    for (std::size_t f = 0; f < reference.frame_count(); ++f) {
      for (const std::size_t s : {std::size_t{2}, std::size_t{5}}) {
        data.seekp(static_cast<std::streamoff>((f * samples + s) * row_bytes));
        data.write(garbage.data(), static_cast<std::streamsize>(row_bytes));
      }
    }
  }

  const EnsembleSeries resumed =
      run_experiment(shard_experiment(path, 0, 1, /*resume=*/true));
  EXPECT_EQ(resumed.resumed_samples, resumed.sample_count() - 2);
  EXPECT_TRUE(stores_bitwise_equal(reference, resumed));
  EXPECT_EQ(reference.equilibrium_steps, resumed.equilibrium_steps);
  std::filesystem::remove(path);
  std::filesystem::remove(manifest_path);
}

TEST(ShardStore, ThreadedResumeMatchesSerialRun) {
  // The concurrent path the TSan job watches: multiple sample chunks
  // sync their extents and flip manifest bits (sharing bitmap words)
  // while resuming. Results must stay bitwise-deterministic.
  const std::string path = fresh_shard_path("resume_threaded.shard");
  const std::string manifest_path = path + ".manifest";
  const EnsembleSeries reference = run_experiment(small_experiment());
  (void)run_experiment(shard_experiment(path));
  ShardManifest crashed = ShardManifestFile::load(manifest_path);
  for (const std::size_t s : {std::size_t{1}, std::size_t{3}, std::size_t{4},
                              std::size_t{6}}) {
    crashed.completed[s / 64] &= ~(std::uint64_t{1} << (s % 64));
    crashed.equilibrium_steps[s] = sops::io::kNoEquilibriumStep;
  }
  { auto rewritten = ShardManifestFile::create(manifest_path, crashed); }

  ExperimentConfig experiment = shard_experiment(path, 0, 1, /*resume=*/true);
  experiment.threads = 4;
  experiment.parallel = sops::sim::ParallelPolicy::kAcrossSamples;
  const EnsembleSeries resumed = run_experiment(experiment);
  EXPECT_EQ(resumed.resumed_samples, resumed.sample_count() - 4);
  EXPECT_TRUE(stores_bitwise_equal(reference, resumed));
  std::filesystem::remove(path);
  std::filesystem::remove(manifest_path);
}

TEST(ShardStore, ResumeRejectsMismatchedExperiments) {
  const std::string path = fresh_shard_path("resume_mismatch.shard");
  (void)run_experiment(shard_experiment(path));

  // Different master seed: a resumed sample would not reproduce the
  // recorded trajectory.
  ExperimentConfig wrong_seed = shard_experiment(path, 0, 1, /*resume=*/true);
  wrong_seed.simulation.seed += 1;
  EXPECT_THROW(run_experiment(wrong_seed), sops::Error);

  // Different dynamics (config hash): same grid and seed, different
  // trajectories.
  ExperimentConfig wrong_dt = shard_experiment(path, 0, 1, /*resume=*/true);
  wrong_dt.simulation.integrator.dt *= 0.5;
  EXPECT_THROW(run_experiment(wrong_dt), sops::Error);

  // Different recording grid.
  ExperimentConfig wrong_grid = shard_experiment(path, 0, 1, /*resume=*/true);
  wrong_grid.simulation.record_stride = 2;
  EXPECT_THROW(run_experiment(wrong_grid), sops::Error);

  // Different slot range: the shard was recorded as 0/1, resuming it as
  // shard 1 of 2 claims slots it does not hold. samples stays equal so
  // only the range differs.
  ExperimentConfig wrong_slots = shard_experiment(path, 1, 2, /*resume=*/true);
  EXPECT_THROW(run_experiment(wrong_slots), sops::Error);

  std::filesystem::remove(path);
  std::filesystem::remove(path + ".manifest");
}

TEST(ShardStore, ConfigHashSeparatesNeighborBackends) {
  using sops::core::experiment_config_hash;
  using sops::sim::NeighborMode;
  const auto hash_with = [](NeighborMode mode, std::size_t n) {
    ExperimentConfig experiment = small_experiment();
    experiment.simulation.types = sops::sim::evenly_distributed_types(n, 3);
    experiment.simulation.neighbor_mode = mode;
    return experiment_config_hash(experiment);
  };
  // The backends are not bitwise-interchangeable: all-pairs and the cell
  // grid sum the same pairs in different orders, and Delaunay is another
  // neighbor model. Each must hash apart.
  for (const std::size_t n : {50u, 96u}) {
    const std::uint64_t all_pairs = hash_with(NeighborMode::kAllPairs, n);
    const std::uint64_t cell_grid = hash_with(NeighborMode::kCellGrid, n);
    const std::uint64_t delaunay = hash_with(NeighborMode::kDelaunay, n);
    EXPECT_NE(all_pairs, cell_grid) << n;
    EXPECT_NE(all_pairs, delaunay) << n;
    EXPECT_NE(cell_grid, delaunay) << n;
  }
  // kAuto hashes as the mode it resolves to: all-pairs below 64
  // particles, the cell grid from 64 on at a finite r_c.
  EXPECT_EQ(hash_with(NeighborMode::kAuto, 50),
            hash_with(NeighborMode::kAllPairs, 50));
  EXPECT_EQ(hash_with(NeighborMode::kAuto, 96),
            hash_with(NeighborMode::kCellGrid, 96));

  // Literal pins (this platform's FNV-1a over native bytes). Delaunay
  // hashes as it did before any summation order was tagged. The cell grid
  // and all-pairs moved off the values their previous orders (full rows,
  // no tag) hashed to, and a tag bump moves them again.
  EXPECT_EQ(hash_with(NeighborMode::kDelaunay, 96), 0xe466569051c8a519ull);
  EXPECT_NE(hash_with(NeighborMode::kCellGrid, 96), 0x09fce128daaa4cd0ull);
  EXPECT_NE(hash_with(NeighborMode::kAllPairs, 50), 0xef919cdc3b4b5240ull);

  // Scheduling stays out of the hash: threads and parallel policy are
  // bitwise-neutral, so shards may differ in them and still merge.
  const std::uint64_t reference = experiment_config_hash(small_experiment());
  for (const sops::sim::ParallelPolicy policy :
       {sops::sim::ParallelPolicy::kAuto,
        sops::sim::ParallelPolicy::kAcrossSamples,
        sops::sim::ParallelPolicy::kWithinStep,
        sops::sim::ParallelPolicy::kHybrid}) {
    for (const std::size_t threads : {1u, 3u}) {
      ExperimentConfig experiment = small_experiment();
      experiment.parallel = policy;
      experiment.threads = threads;
      experiment.simulation.parallel_policy = policy;
      experiment.simulation.threads = threads;
      EXPECT_EQ(experiment_config_hash(experiment), reference)
          << static_cast<int>(policy) << " " << threads;
    }
  }

  // A shard recorded under one backend does not resume under another.
  const std::string path = fresh_shard_path("resume_backend.shard");
  ExperimentConfig recorded = shard_experiment(path);
  recorded.simulation.neighbor_mode = NeighborMode::kDelaunay;
  (void)run_experiment(recorded);
  ExperimentConfig resumed = shard_experiment(path, 0, 1, /*resume=*/true);
  resumed.simulation.neighbor_mode = NeighborMode::kCellGrid;
  try {
    (void)run_experiment(resumed);
    ADD_FAILURE() << "resume under another neighbor backend was accepted";
  } catch (const sops::Error& e) {
    EXPECT_NE(std::string(e.what()).find("has config hash"), std::string::npos)
        << e.what();
  }
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".manifest");
}

TEST(ShardStore, TwoShardMergeMatchesSingleRun) {
  const std::string shard0 = fresh_shard_path("merge_a0.shard");
  const std::string shard1 = fresh_shard_path("merge_a1.shard");
  const std::string merged = fresh_shard_path("merge_a_out.shard");
  (void)run_experiment(shard_experiment(shard0, 0, 2));
  (void)run_experiment(shard_experiment(shard1, 1, 2));

  const sops::core::MergeResult result =
      sops::core::merge_shards({shard0, shard1}, merged);
  EXPECT_EQ(result.shard_count, 2u);
  EXPECT_EQ(result.samples_total, small_experiment().samples);

  // The merged file is itself a valid 1-shard recording: resume it with
  // the same config and compare bitwise against an uninterrupted run.
  const EnsembleSeries from_merge =
      run_experiment(shard_experiment(merged, 0, 1, /*resume=*/true));
  EXPECT_EQ(from_merge.resumed_samples, from_merge.sample_count());
  const EnsembleSeries reference = run_experiment(small_experiment());
  EXPECT_TRUE(stores_bitwise_equal(reference, from_merge));
  EXPECT_EQ(reference.equilibrium_steps, from_merge.equilibrium_steps);

  for (const std::string& path : {shard0, shard1, merged}) {
    std::filesystem::remove(path);
    std::filesystem::remove(path + ".manifest");
  }
}

TEST(ShardStore, MergeRejectsBadShardSets) {
  const std::string shard0 = fresh_shard_path("merge_b0.shard");
  const std::string shard1 = fresh_shard_path("merge_b1.shard");
  const std::string foreign = fresh_shard_path("merge_bx.shard");
  const std::string out = fresh_shard_path("merge_b_out.shard");
  (void)run_experiment(shard_experiment(shard0, 0, 2));
  (void)run_experiment(shard_experiment(shard1, 1, 2));
  {
    ExperimentConfig other = shard_experiment(foreign, 1, 2);
    other.simulation.seed += 99;
    (void)run_experiment(other);
  }

  // Missing slots: one shard of two.
  EXPECT_THROW(sops::core::merge_shards({shard0}, out), sops::Error);
  // Overlapping slots: the same shard twice.
  EXPECT_THROW(sops::core::merge_shards({shard0, shard0}, out), sops::Error);
  // Mismatched experiment: right slot ranges, wrong seed/config hash.
  EXPECT_THROW(sops::core::merge_shards({shard0, foreign}, out), sops::Error);

  // Incomplete bitmap: clear one completion bit of shard1.
  ShardManifest partial = ShardManifestFile::load(shard1 + ".manifest");
  partial.completed[0] &= ~std::uint64_t{1};
  { auto rewritten = ShardManifestFile::create(shard1 + ".manifest", partial); }
  EXPECT_THROW(sops::core::merge_shards({shard0, shard1}, out), sops::Error);

  for (const std::string& path : {shard0, shard1, foreign, out}) {
    std::filesystem::remove(path);
    std::filesystem::remove(path + ".manifest");
  }
}

}  // namespace
