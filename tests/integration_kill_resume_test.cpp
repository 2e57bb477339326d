// End-to-end crash recovery: a child process recording a shard is
// SIGKILL'd mid-ensemble — no destructors, no flushes, pages left dirty —
// and a resumed run must produce a recording bitwise-identical to one
// that was never interrupted. This is the whole point of the manifest's
// sync-before-bit-flip protocol, exercised with a real dead process.
//
// Named integration_* (not engine_*) deliberately: the TSan ctest filter
// must not pick this up — fork() from a test binary under TSan, with the
// child spawning threads, is undefined enough to hang.
#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "core/experiment.hpp"
#include "core/presets.hpp"
#include "core/shard.hpp"
#include "io/shard_manifest.hpp"
#include "support/error.hpp"

namespace {

using sops::core::EnsembleSeries;
using sops::core::ExperimentConfig;
using sops::core::run_experiment;
using sops::io::ShardManifest;
using sops::io::ShardManifestFile;

// Enough samples that SIGKILL lands mid-ensemble, small enough to finish
// in well under a second per sample.
ExperimentConfig kill_experiment(const std::string& shard_path, bool resume) {
  sops::sim::SimulationConfig simulation =
      sops::core::presets::fig4_three_type_collective();
  simulation.steps = 40;
  simulation.record_stride = 8;
  ExperimentConfig experiment(simulation);
  experiment.samples = 24;
  experiment.shard.path = shard_path;
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

TEST(KillResume, SigkilledShardResumesBitwiseIdentical) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "kill_resume.shard")
          .string();
  const std::string manifest_path = path + ".manifest";
  std::filesystem::remove(path);
  std::filesystem::remove(manifest_path);

  // Fork while this process is still single-threaded (gtest main thread
  // only) — the child is then free to spawn its own pool.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0) << "fork: " << std::strerror(errno);
  if (child == 0) {
    // In the child: record the shard serially and exit. _exit, never
    // return — running the parent's gtest teardown twice corrupts both.
    try {
      (void)run_experiment(kill_experiment(path, /*resume=*/false));
    } catch (...) {
      ::_exit(3);
    }
    ::_exit(0);
  }

  // Wait until the child has durably completed at least one sample, then
  // SIGKILL it mid-ensemble. The manifest may not exist yet or be
  // mid-create on the first polls — retry on throw. If the child outruns
  // the poll and finishes first, the test degrades to the all-complete
  // resume case, which must still hold bitwise.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  bool reaped = false;
  bool signalled = false;
  while (std::chrono::steady_clock::now() < deadline) {
    std::size_t complete = 0;
    try {
      complete = ShardManifestFile::load(manifest_path).complete_count();
    } catch (...) {
      // not created yet
    }
    if (complete >= 1) {
      ::kill(child, SIGKILL);
      signalled = true;
      break;
    }
    int probe_status = 0;
    if (::waitpid(child, &probe_status, WNOHANG) == child) {
      // Child finished before we could kill it.
      ASSERT_TRUE(WIFEXITED(probe_status) && WEXITSTATUS(probe_status) == 0)
          << "child failed before it could be killed";
      reaped = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(signalled || reaped)
      << "child never completed a sample within the deadline";
  if (!reaped) {
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
  }

  // The dead child's manifest must load clean (fixed-layout, in-place
  // updates) and under-report at worst — never claim a sample whose bytes
  // did not reach disk.
  const ShardManifest after_kill = ShardManifestFile::load(manifest_path);
  EXPECT_EQ(after_kill.samples_total, 24u);

  // Resume in this process and compare against an uninterrupted in-memory
  // run: (seed, stream) determinism makes completed-then-kept samples and
  // redone samples indistinguishable.
  const EnsembleSeries resumed =
      run_experiment(kill_experiment(path, /*resume=*/true));
  EXPECT_EQ(resumed.resumed_samples, after_kill.complete_count());

  ExperimentConfig reference_config = kill_experiment(path, false);
  reference_config.shard = {};
  const EnsembleSeries reference = run_experiment(reference_config);
  EXPECT_TRUE(stores_bitwise_equal(reference, resumed));
  EXPECT_EQ(reference.equilibrium_steps, resumed.equilibrium_steps);

  std::filesystem::remove(path);
  std::filesystem::remove(manifest_path);
}

// Rewrites shard `index` of a fresh two-shard recording with the config
// hash its backend's previous summation order produced (pinned literally:
// this platform's FNV-1a over native bytes). Resume and merge must refuse
// it by name, not mix two summation orders in one ensemble.
void expect_parent_era_shard_refused(std::size_t particles,
                                     std::uint64_t parent_era_hash,
                                     const std::string& label) {
  const auto experiment = [&](const std::string& path, std::size_t index,
                              bool resume) {
    sops::sim::SimulationConfig simulation =
        sops::core::presets::fig4_three_type_collective();
    simulation.types = sops::sim::evenly_distributed_types(particles, 3);
    simulation.steps = 12;
    simulation.record_stride = 4;
    ExperimentConfig config(simulation);
    config.samples = 4;
    config.shard.path = path;
    config.shard.index = index;
    config.shard.count = 2;
    config.shard.resume = resume;
    return config;
  };
  const auto temp = std::filesystem::path(::testing::TempDir());
  const std::string current = (temp / (label + "_current.shard")).string();
  const std::string parent = (temp / (label + "_parent.shard")).string();
  const std::string merged = (temp / (label + "_merged.shard")).string();
  for (const std::string& path : {current, parent, merged}) {
    std::filesystem::remove(path);
    std::filesystem::remove(path + ".manifest");
  }
  (void)run_experiment(experiment(current, 0, false));
  (void)run_experiment(experiment(parent, 1, false));
  ShardManifest era = ShardManifestFile::load(parent + ".manifest");
  ASSERT_NE(era.config_hash, parent_era_hash);
  era.config_hash = parent_era_hash;
  (void)ShardManifestFile::create(parent + ".manifest", era);

  try {
    (void)run_experiment(experiment(parent, 1, true));
    ADD_FAILURE() << "a parent-era " << label << " shard resumed";
  } catch (const sops::Error& e) {
    EXPECT_NE(std::string(e.what()).find("has config hash"), std::string::npos)
        << e.what();
  }
  try {
    (void)sops::core::merge_shards({current, parent}, merged);
    ADD_FAILURE() << "a parent-era " << label << " shard merged";
  } catch (const sops::Error& e) {
    EXPECT_NE(std::string(e.what()).find("config hash"), std::string::npos)
        << e.what();
  }
  for (const std::string& path : {current, parent, merged}) {
    std::filesystem::remove(path);
    std::filesystem::remove(path + ".manifest");
  }
}

// A cell-grid shard (n = 96) recorded before the grid's drift computed
// each pair once.
TEST(KillResume, ParentEraCellGridShardIsRefused) {
  expect_parent_era_shard_refused(96, 0x7dbe35955de1c65cull, "cell_grid");
}

// An all-pairs shard (fig4's n = 50) recorded before the all-pairs drift
// computed each pair once.
TEST(KillResume, ParentEraAllPairsShardIsRefused) {
  expect_parent_era_shard_refused(50, 0x6352f148be82cbccull, "all_pairs");
}

}  // namespace

#else  // !(__unix__ || __APPLE__)

TEST(KillResume, SkippedWithoutPosix) {
  GTEST_SKIP() << "fork/SIGKILL crash recovery needs POSIX";
}

#endif
