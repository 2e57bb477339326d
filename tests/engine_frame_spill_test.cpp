// Disk-backed FrameStore recordings through the full engine: a spilled
// (memory-mapped) store must be a pure storage-layer swap — bitwise the
// same recording, the same analyzer output, the same concurrent
// sample_slot streaming — with a graceful heap fallback when the spill
// directory is unusable. Named engine_* so the TSan CI job covers the
// concurrent mapped writes and the sharded flush path.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "core/analyzer.hpp"
#include "core/experiment.hpp"
#include "core/frame_store.hpp"
#include "core/presets.hpp"
#include "support/executor.hpp"

namespace {

using sops::core::AnalysisResult;
using sops::core::EnsembleSeries;
using sops::core::ExperimentConfig;
using sops::core::FrameStoreOptions;
using sops::core::StorageMode;
using sops::core::run_experiment;

ExperimentConfig small_experiment() {
  sops::sim::SimulationConfig simulation =
      sops::core::presets::fig4_three_type_collective();
  simulation.steps = 12;
  simulation.record_stride = 4;
  ExperimentConfig experiment(simulation);
  experiment.samples = 8;
  return experiment;
}

EnsembleSeries run_with_storage(StorageMode mode, std::size_t threads = 0) {
  ExperimentConfig experiment = small_experiment();
  experiment.storage.mode = mode;
  experiment.storage.spill_dir = ::testing::TempDir();
  if (threads != 0) {
    experiment.threads = threads;
    experiment.parallel = sops::sim::ParallelPolicy::kAcrossSamples;
  }
  return run_experiment(experiment);
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
      if (std::memcmp(lhs.data(), rhs.data(),
                      lhs.size_bytes()) != 0) {
        return false;
      }
    }
  }
  return true;
}

TEST(FrameSpill, MappedRecordingIsBitwiseIdenticalToHeap) {
  const EnsembleSeries heap = run_with_storage(StorageMode::kHeap);
  const EnsembleSeries mapped = run_with_storage(StorageMode::kMapped);
  ASSERT_EQ(heap.frames.storage(), StorageMode::kHeap);
  ASSERT_EQ(mapped.frames.storage(), StorageMode::kMapped);
  EXPECT_TRUE(stores_bitwise_equal(heap, mapped));
  EXPECT_EQ(heap.frame_steps, mapped.frame_steps);
  EXPECT_EQ(heap.equilibrium_steps, mapped.equilibrium_steps);
}

TEST(FrameSpill, ConcurrentSampleSlotWritesIntoMappedStore) {
  // Sample chunks stream into disjoint mapped slots and flush their own
  // extents concurrently (the TSan job watches this path); results stay
  // bitwise-identical to the serial heap run for any thread count.
  const EnsembleSeries serial = run_with_storage(StorageMode::kHeap);
  const EnsembleSeries threaded = run_with_storage(StorageMode::kMapped, 4);
  EXPECT_TRUE(stores_bitwise_equal(serial, threaded));
}

TEST(FrameSpill, AnalyzerOutputMatchesAcrossStorageModes) {
  // FrameView/sample spans are pointer-based, so the analyzer must not be
  // able to tell a mapped recording from a heap one — bit for bit.
  const EnsembleSeries heap = run_with_storage(StorageMode::kHeap);
  const EnsembleSeries mapped = run_with_storage(StorageMode::kMapped);
  ASSERT_EQ(mapped.frames.storage(), StorageMode::kMapped);
  const AnalysisResult heap_result = analyze_self_organization(heap);
  const AnalysisResult mapped_result = analyze_self_organization(mapped);
  ASSERT_EQ(heap_result.points.size(), mapped_result.points.size());
  for (std::size_t i = 0; i < heap_result.points.size(); ++i) {
    EXPECT_EQ(heap_result.points[i].multi_information,
              mapped_result.points[i].multi_information)
        << "frame " << i;
  }
}

TEST(FrameSpill, SpillFileLivesWithTheSeriesAndIsRemovedAfter) {
  std::string spill_path;
  {
    const EnsembleSeries mapped = run_with_storage(StorageMode::kMapped);
    ASSERT_EQ(mapped.frames.storage(), StorageMode::kMapped);
    spill_path = mapped.frames.spill_path();
    EXPECT_TRUE(std::filesystem::exists(spill_path));
    EXPECT_GE(std::filesystem::file_size(spill_path), mapped.frames.bytes());
  }
  // Spill files are scratch: destroying the series unlinks the backing.
  EXPECT_FALSE(std::filesystem::exists(spill_path));
}

TEST(FrameSpill, UnwritableSpillDirFailsTheRunWithTheReason) {
  ExperimentConfig experiment = small_experiment();
  experiment.storage.mode = StorageMode::kMapped;
  experiment.storage.spill_dir = "/nonexistent/sops-spill-dir";
  try {
    (void)run_experiment(experiment);
    ADD_FAILURE() << "an unmappable spill recorded on the heap";
  } catch (const sops::Error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("/nonexistent/sops-spill-dir"), std::string::npos)
        << what;
    EXPECT_NE(what.find("open: "), std::string::npos) << what;
  }
}

TEST(FrameSpill, AutoModeHonorsProjectedBytesThreshold) {
  ExperimentConfig experiment = small_experiment();
  experiment.storage.mode = StorageMode::kAuto;
  experiment.storage.spill_dir = ::testing::TempDir();
  experiment.storage.auto_spill_bytes = std::size_t{1} << 40;
  const EnsembleSeries kept = run_experiment(experiment);
  EXPECT_EQ(kept.frames.storage(), StorageMode::kHeap);

  experiment.storage.auto_spill_bytes = 1;
  const EnsembleSeries spilled = run_experiment(experiment);
  EXPECT_EQ(spilled.frames.storage(), StorageMode::kMapped);
  const EnsembleSeries heap = run_with_storage(StorageMode::kHeap);
  EXPECT_TRUE(stores_bitwise_equal(heap, spilled));
}

TEST(FrameSpill, ShardedFlushOnLentExecutorKeepsData) {
  // flush_samples on a multi-width executor msyncs/releases disjoint
  // per-frame extents in parallel; the store must read back unchanged.
  sops::core::FrameStoreOptions options;
  options.mode = StorageMode::kMapped;
  options.spill_dir = ::testing::TempDir();
  sops::core::FrameStore store(5, 6, 64, options);
  ASSERT_EQ(store.storage(), StorageMode::kMapped);
  for (std::size_t f = 0; f < 5; ++f) {
    for (std::size_t s = 0; s < 6; ++s) {
      auto slot = store.sample_slot(f, s);
      for (std::size_t i = 0; i < slot.size(); ++i) {
        slot[i] = {static_cast<double>(f * 1000 + s * 100 + i),
                   -static_cast<double>(i)};
      }
    }
  }
  sops::support::TaskPool pool(4);
  for (std::size_t s = 0; s < 6; ++s) {
    store.flush_samples(s, s + 1, &pool.executor());
  }
  for (std::size_t f = 0; f < 5; ++f) {
    for (std::size_t s = 0; s < 6; ++s) {
      const auto slot = store.sample(f, s);
      for (std::size_t i = 0; i < slot.size(); ++i) {
        ASSERT_EQ(slot[i].x, static_cast<double>(f * 1000 + s * 100 + i));
        ASSERT_EQ(slot[i].y, -static_cast<double>(i));
      }
    }
  }
}

TEST(FrameSpill, StaleSweepRemovesOnlyDeadOldSpills) {
  // Crash leftovers: a spill named for a dead pid with an old mtime goes;
  // anything young, live-pid, or not spill-named stays.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "sops_sweep_test_dir";
  fs::remove_all(dir);
  fs::create_directories(dir);

  // A pid that cannot be alive: pid_max on Linux tops out below 2^22 by
  // default; 4 million-ish is safely dead, and the sweep double-checks
  // with kill(pid, 0) anyway.
  const fs::path dead_old = dir / "sops_frames_999999999_42.spill";
  const fs::path dead_young = dir / "sops_frames_999999998_42.spill";
  const fs::path live_old =
      dir / ("sops_frames_" + std::to_string(::getpid()) + "_42.spill");
  const fs::path unrelated = dir / "keep_me.dat";
  for (const fs::path& path : {dead_old, dead_young, live_old, unrelated}) {
    std::ofstream(path) << "x";
  }
  // Age the "old" files past the sweep's safety window (10 min).
  const auto old_stamp = fs::file_time_type::clock::now() -
                         std::chrono::hours(2);
  fs::last_write_time(dead_old, old_stamp);
  fs::last_write_time(live_old, old_stamp);

  sops::core::sweep_stale_spill_files(dir.string());
  EXPECT_FALSE(fs::exists(dead_old));   // dead pid + old → reclaimed
  EXPECT_TRUE(fs::exists(dead_young));  // too young → kept
  EXPECT_TRUE(fs::exists(live_old));    // pid alive (us) → kept
  EXPECT_TRUE(fs::exists(unrelated));   // not a spill name → kept
  fs::remove_all(dir);
}

TEST(FrameSpill, StaleSweepIgnoresMalformedNamesAndMissingDir) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "sops_sweep_malformed_dir";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto old_stamp = fs::file_time_type::clock::now() -
                         std::chrono::hours(2);
  // Near-miss names: bad pid field, missing suffix, persist-style name.
  const std::vector<fs::path> keep = {
      dir / "sops_frames_notapid_1.spill",
      dir / "sops_frames_999999999_1.spillx",
      dir / "sops_frames_999999999.spill",
      dir / "my_ensemble.shard",
  };
  for (const fs::path& path : keep) {
    std::ofstream(path) << "x";
    fs::last_write_time(path, old_stamp);
  }
  sops::core::sweep_stale_spill_files(dir.string());
  for (const fs::path& path : keep) {
    EXPECT_TRUE(fs::exists(path)) << path;
  }
  fs::remove_all(dir);
  // A missing directory is a no-op, not an error.
  sops::core::sweep_stale_spill_files((dir / "nope").string());
}

}  // namespace
