// Job layer tests: the JobManager must be a pure scheduler — whatever mix
// of concurrent jobs, admission stalls, shared-pool slices, and cancels it
// runs under, every job that completes must hand back the exact bits a solo
// batch run of the same config produces. Cancellation must reclaim
// everything it touched (spill files, pool slices, budget charges) and
// leave durable shards resumable.
//
// Named core_job_* so the CI TSan leg picks the whole suite up (see
// .github/workflows/ci.yml): the manager's driver threads, sample workers,
// and event callbacks are exactly the kind of concurrency TSan exists for.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cfloat>
#include <cmath>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/job_manager.hpp"
#include "core/presets.hpp"
#include "sim/parallel_policy.hpp"
#include "support/cancel.hpp"

namespace {

using sops::CancelledError;
using sops::Error;
using sops::core::AnalysisResult;
using sops::core::analyze_self_organization;
using sops::core::ConfiguredExperiment;
using sops::core::EnsembleSeries;
using sops::core::ExperimentConfig;
using sops::core::JobAnalysis;
using sops::core::JobLimits;
using sops::core::JobManager;
using sops::core::JobOptions;
using sops::core::JobOutcome;
using sops::core::JobState;
using sops::core::JobStatus;
using sops::core::run_experiment;
using sops::core::StorageMode;

ConfiguredExperiment small_job(std::uint64_t seed, std::size_t samples = 8,
                               std::size_t steps = 20) {
  sops::sim::SimulationConfig simulation =
      sops::core::presets::fig4_three_type_collective();
  simulation.steps = steps;
  simulation.record_stride = steps / 2;
  simulation.seed = seed;
  ConfiguredExperiment configured{ExperimentConfig(simulation), {}};
  configured.experiment.samples = samples;
  return configured;
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

std::size_t spill_files_in(const std::string& dir) {
  std::size_t count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".spill") ++count;
  }
  return count;
}

// ---------------------------------------------------------------- policy

TEST(CoreJobPolicy, JobThreadSharesPartitionTheMachine) {
  // The shares must tile the machine budget exactly (modulo the floor at
  // one thread per job) and every slot must get at least one runner.
  EXPECT_EQ(sops::sim::resolve_job_threads(0, 2, 8), 4u);
  EXPECT_EQ(sops::sim::resolve_job_threads(1, 2, 8), 4u);
  EXPECT_EQ(sops::sim::resolve_job_threads(0, 3, 8), 3u);
  EXPECT_EQ(sops::sim::resolve_job_threads(1, 3, 8), 3u);
  EXPECT_EQ(sops::sim::resolve_job_threads(2, 3, 8), 2u);
  // More slots than threads: the floor keeps every slot runnable.
  EXPECT_EQ(sops::sim::resolve_job_threads(0, 2, 1), 1u);
  EXPECT_EQ(sops::sim::resolve_job_threads(1, 2, 1), 1u);
  EXPECT_EQ(sops::sim::resolve_job_threads(3, 4, 2), 1u);
}

// ---------------------------------------------------------- single job

TEST(CoreJobManager, SingleJobMatchesDirectRun) {
  const ConfiguredExperiment reference_config = small_job(1234);
  const EnsembleSeries reference =
      run_experiment(reference_config.experiment);
  const AnalysisResult reference_analysis =
      analyze_self_organization(reference, reference_config.analysis);

  JobManager manager(JobLimits{.machine_threads = 2, .job_slots = 1});
  JobOptions options;
  options.analysis = JobAnalysis::kPostHoc;
  const std::uint64_t id = manager.submit(small_job(1234), options);
  const JobOutcome outcome = manager.wait(id);

  EXPECT_TRUE(stores_bitwise_equal(reference, outcome.series));
  ASSERT_TRUE(outcome.analysis.has_value());
  ASSERT_EQ(outcome.analysis->points.size(), reference_analysis.points.size());
  for (std::size_t f = 0; f < reference_analysis.points.size(); ++f) {
    EXPECT_EQ(outcome.analysis->points[f].multi_information,
              reference_analysis.points[f].multi_information);
  }

  const JobStatus status = manager.status(id);
  EXPECT_EQ(status.state, JobState::kDone);
  EXPECT_EQ(status.samples_done, status.samples_total);
  EXPECT_TRUE(status.analyzed);
  EXPECT_EQ(status.delta_mi, reference_analysis.delta_mi());
}

TEST(CoreJobManager, PerSampleEventsCoverEverySample) {
  JobManager manager(JobLimits{.machine_threads = 4, .job_slots = 1});
  std::atomic<std::size_t> samples_seen{0};
  std::atomic<std::size_t> last_done{0};
  JobOptions options;
  options.analysis = JobAnalysis::kNone;
  options.events.on_sample_done =
      [&](const sops::core::JobSampleEvent& event) {
        ++samples_seen;
        last_done.store(event.samples_done);
        // The announced sample's slots are final: reading them here, off a
        // worker thread mid-run, is part of the contract.
        EXPECT_EQ(event.series->frames.sample(0, event.local_sample).size(),
                  event.series->particle_count());
      };
  const std::uint64_t id = manager.submit(small_job(5, 10), options);
  (void)manager.wait(id);
  EXPECT_EQ(samples_seen.load(), 10u);
  EXPECT_EQ(last_done.load(), 10u);
}

// ------------------------------------------------- concurrent bit parity

TEST(CoreJobManager, TwoConcurrentJobsMatchSequentialBatchRuns) {
  // The satellite acceptance test: two jobs sharing one machine pool under
  // admission control must produce recordings and curves bitwise-identical
  // to running each config alone, sequentially, in batch.
  const ConfiguredExperiment config_a = small_job(100, 10);
  const ConfiguredExperiment config_b = small_job(200, 6, 30);
  const EnsembleSeries solo_a = run_experiment(config_a.experiment);
  const EnsembleSeries solo_b = run_experiment(config_b.experiment);
  const AnalysisResult solo_a_analysis =
      analyze_self_organization(solo_a, config_a.analysis);

  JobManager manager(JobLimits{.machine_threads = 4, .job_slots = 2});
  JobOptions post_hoc;
  post_hoc.analysis = JobAnalysis::kPostHoc;
  JobOptions record_only;
  record_only.analysis = JobAnalysis::kNone;
  const std::uint64_t a = manager.submit(config_a, post_hoc);
  const std::uint64_t b = manager.submit(config_b, record_only);
  JobOutcome outcome_b = manager.wait(b);
  JobOutcome outcome_a = manager.wait(a);

  EXPECT_TRUE(stores_bitwise_equal(solo_a, outcome_a.series));
  EXPECT_TRUE(stores_bitwise_equal(solo_b, outcome_b.series));
  EXPECT_EQ(solo_a.equilibrium_steps, outcome_a.series.equilibrium_steps);
  ASSERT_TRUE(outcome_a.analysis.has_value());
  ASSERT_EQ(outcome_a.analysis->points.size(), solo_a_analysis.points.size());
  for (std::size_t f = 0; f < solo_a_analysis.points.size(); ++f) {
    EXPECT_EQ(outcome_a.analysis->points[f].multi_information,
              solo_a_analysis.points[f].multi_information);
  }
}

// Live threads of this process, as /proc/self/task lists them.
std::size_t live_threads() {
  std::size_t count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++count;
  }
  return count;
}

TEST(CoreJobManager, PostHocAnalysisStaysWithinItsSlotShare) {
  // Two post-hoc jobs on a 2-slot, 2-thread manager: each slot's share is
  // its driver thread alone, so the analysis pools may add no thread. An
  // analysis left at threads = 0 would spawn a machine-wide pool per job.
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "no /proc/self/task";
  }
  // Declared before the manager: a driver may still be in the event
  // callback when wait() returns.
  std::atomic<int> analyzing{0};
  std::atomic<bool> done{false};
  std::size_t samples_taken = 0;
  std::size_t peak = 0;
  JobManager manager(JobLimits{.machine_threads = 2, .job_slots = 2});
  std::thread sampler([&] {
    while (!done.load()) {
      if (analyzing.load() == 0) {
        std::this_thread::yield();
        continue;
      }
      peak = std::max(peak, live_threads());
      ++samples_taken;
    }
  });
  JobOptions options;
  options.analysis = JobAnalysis::kPostHoc;
  options.events.on_state_change = [&](const JobStatus& status) {
    // kStreaming marks the analysis phase of a post-hoc job.
    if (status.state == JobState::kStreaming) ++analyzing;
    if (status.state == JobState::kDone) --analyzing;
  };
  // The test thread, the sampler and the two drivers (plus any runtime
  // threads): the machine pool has no workers, 2 slots × (1 − 1 driver).
  const std::size_t idle = live_threads();
  const std::uint64_t a = manager.submit(small_job(300, 60), options);
  const std::uint64_t b = manager.submit(small_job(301, 60), options);
  const JobOutcome outcome_a = manager.wait(a);
  const JobOutcome outcome_b = manager.wait(b);
  done = true;
  sampler.join();

  EXPECT_TRUE(outcome_a.analysis.has_value());
  EXPECT_TRUE(outcome_b.analysis.has_value());
  ASSERT_GT(samples_taken, 0u);
  EXPECT_LE(peak, idle);
}

// ------------------------------------------------------------- admission

TEST(CoreJobManager, RejectsJobWhoseResidentFootprintExceedsBudget) {
  JobLimits limits;
  limits.machine_threads = 1;
  limits.job_slots = 1;
  limits.memory_budget_bytes = 1024;  // way below any heap recording
  JobManager manager(limits);

  EXPECT_THROW((void)manager.submit(small_job(1)), Error);

  // The same payload spilled to a mapped store projects to ~zero resident
  // bytes and must be admitted.
  ConfiguredExperiment mapped = small_job(1);
  mapped.experiment.storage.mode = StorageMode::kMapped;
  mapped.experiment.storage.spill_dir = ::testing::TempDir();
  JobOptions options;
  options.analysis = JobAnalysis::kNone;
  const std::uint64_t id = manager.submit(mapped, options);
  const JobOutcome outcome = manager.wait(id);
  EXPECT_EQ(outcome.series.sample_count(), 8u);
}

TEST(CoreJobManager, UnmappableSpillFailsTheJobWithTheReason) {
  // Admission charges a mapped job ~zero resident bytes, so a spill that
  // cannot map its file must fail the job by name — never hold the whole
  // payload on the heap under a budget far below it.
  JobLimits limits;
  limits.machine_threads = 1;
  limits.job_slots = 1;
  limits.memory_budget_bytes = 1024;  // way below the heap payload
  JobManager manager(limits);
  ConfiguredExperiment mapped = small_job(1);
  mapped.experiment.storage.mode = StorageMode::kMapped;
  mapped.experiment.storage.spill_dir = "/nonexistent/sops-spill-dir";
  JobOptions options;
  options.analysis = JobAnalysis::kNone;
  const std::uint64_t id = manager.submit(mapped, options);
  try {
    (void)manager.wait(id);
    ADD_FAILURE() << "an unmappable spill job finished";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("/nonexistent/sops-spill-dir"),
              std::string::npos)
        << error.what();
  }
  const JobStatus status = manager.status(id);
  EXPECT_EQ(status.state, JobState::kFailed);
  EXPECT_NE(status.error.find("open: "), std::string::npos) << status.error;
}

TEST(CoreJobManager, RejectsAnalysisThatCanNeverRun) {
  // The estimator needs k + 1 samples and the alignment two particles:
  // an analyzed job short of either fails at submit, before any sample
  // simulates, with the reason named.
  JobManager manager(JobLimits{.machine_threads = 1, .job_slots = 1});
  ConfiguredExperiment few_samples = small_job(1, 4);
  few_samples.analysis.ksg.k = 4;
  try {
    (void)manager.submit(few_samples);
    ADD_FAILURE() << "a 4-sample job with k = 4 was accepted";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("k = 4"), std::string::npos)
        << error.what();
  }
  ConfiguredExperiment one_particle = small_job(1, 8);
  one_particle.experiment.simulation.types.resize(1);
  EXPECT_THROW((void)manager.submit(one_particle), Error);
  EXPECT_TRUE(manager.statuses().empty()) << "a rejected job was queued";

  // Record-only jobs have no analysis to refuse.
  JobOptions record_only;
  record_only.analysis = JobAnalysis::kNone;
  const std::uint64_t id = manager.submit(few_samples, record_only);
  EXPECT_EQ(manager.wait(id).series.sample_count(), 4u);
}

TEST(CoreJobManager, QueuesJobsUntilResidentBudgetFrees) {
  const ConfiguredExperiment config = small_job(9, 6);
  const std::size_t resident =
      JobManager::projected_resident_bytes(config.experiment);
  ASSERT_GT(resident, 0u);

  // Two slots but a budget that fits exactly one job: they must run one
  // after the other, and both must still complete.
  JobLimits limits;
  limits.machine_threads = 2;
  limits.job_slots = 2;
  limits.memory_budget_bytes = resident;
  JobManager manager(limits);
  JobOptions options;
  options.analysis = JobAnalysis::kNone;
  const std::uint64_t a = manager.submit(config, options);
  const std::uint64_t b = manager.submit(small_job(9, 6), options);
  const JobOutcome outcome_a = manager.wait(a);
  const JobOutcome outcome_b = manager.wait(b);
  EXPECT_TRUE(stores_bitwise_equal(outcome_a.series, outcome_b.series));
}

// ---------------------------------------------------------- cancellation

TEST(CoreJobManager, CancelQueuedJobTerminatesImmediately) {
  const ConfiguredExperiment config = small_job(3, 6);
  const std::size_t resident =
      JobManager::projected_resident_bytes(config.experiment);
  JobLimits limits;
  limits.machine_threads = 1;
  limits.job_slots = 1;
  limits.memory_budget_bytes = resident;  // second job must queue
  JobManager manager(limits);
  JobOptions options;
  options.analysis = JobAnalysis::kNone;
  const std::uint64_t running = manager.submit(config, options);
  const std::uint64_t queued = manager.submit(small_job(4, 6), options);
  EXPECT_TRUE(manager.cancel(queued));
  EXPECT_THROW((void)manager.wait(queued), CancelledError);
  EXPECT_EQ(manager.status(queued).state, JobState::kCancelled);
  (void)manager.wait(running);
  EXPECT_FALSE(manager.cancel(queued));  // already terminal
  EXPECT_FALSE(manager.cancel(999));     // unknown id
}

// A finished job keeps its status, not what it was handed: the hooks (and
// their captures) and the config go once it settles, done or cancelled.
TEST(CoreJobManager, SettledJobsReleaseTheirHooks) {
  // Long enough that the second job is still queued when it is cancelled.
  const ConfiguredExperiment config = small_job(5, 4, 4000);
  JobLimits limits;
  limits.machine_threads = 1;
  limits.job_slots = 1;
  limits.memory_budget_bytes =
      JobManager::projected_resident_bytes(config.experiment);
  JobManager manager(limits);

  const auto capture = std::make_shared<std::atomic<std::size_t>>(0);
  JobOptions options;
  options.analysis = JobAnalysis::kNone;
  options.events.on_state_change = [capture](const JobStatus&) {};
  options.events.on_sample_done =
      [capture](const sops::core::JobSampleEvent&) { ++*capture; };
  const std::uint64_t done = manager.submit(config, options);
  const std::uint64_t cancelled = manager.submit(small_job(6, 4), options);
  options = JobOptions{};
  EXPECT_GT(capture.use_count(), 1);

  EXPECT_TRUE(manager.cancel(cancelled));
  EXPECT_THROW((void)manager.wait(cancelled), CancelledError);
  (void)manager.wait(done);
  EXPECT_EQ(capture.use_count(), 1);
  EXPECT_EQ(capture->load(), 4u) << "every sample event still fired";

  const JobStatus status = manager.status(done);
  EXPECT_EQ(status.state, JobState::kDone);
  EXPECT_EQ(status.samples_done, 4u);
  EXPECT_EQ(status.samples_total, 4u);
  EXPECT_EQ(manager.status(cancelled).state, JobState::kCancelled);
}

TEST(CoreJobManager, CancelDuringAnalysisStopsAtAFrameBoundary) {
  // The job is cancelled the moment it enters its analysis phase: the
  // analyzer polls the job's token before each frame, so the job ends
  // cancelled instead of analyzing its frames.
  JobManager manager(JobLimits{.machine_threads = 2, .job_slots = 1});
  std::atomic<bool> cancelled{false};
  JobOptions options;
  options.analysis = JobAnalysis::kPostHoc;
  options.events.on_state_change = [&](const JobStatus& status) {
    if (status.state == JobState::kStreaming) {
      cancelled = manager.cancel(status.id);
    }
  };
  const std::uint64_t id = manager.submit(small_job(12, 8), options);
  EXPECT_THROW((void)manager.wait(id), CancelledError);
  EXPECT_TRUE(cancelled.load());
  const JobStatus status = manager.status(id);
  EXPECT_EQ(status.state, JobState::kCancelled);
  EXPECT_FALSE(status.analyzed);
  EXPECT_EQ(status.samples_done, status.samples_total);
}

TEST(CoreJobManager, CancellationFuzzReclaimsEverything) {
  // Cancel at staggered points across storage modes × thread counts. At
  // every cut point: the spill directory ends empty (scratch files
  // unlinked during unwind), the manager keeps serving (slices returned),
  // and a follow-up job on the same manager still matches a solo run
  // bitwise — cancellation must never bleed into later jobs.
  const std::string spill_dir =
      (std::filesystem::path(::testing::TempDir()) / "job_fuzz_spill")
          .string();
  std::filesystem::create_directories(spill_dir);
  const EnsembleSeries reference =
      run_experiment(small_job(42, 6).experiment);

  const std::vector<StorageMode> modes{StorageMode::kHeap,
                                       StorageMode::kMapped,
                                       StorageMode::kAuto};
  const std::vector<std::size_t> thread_counts{1, 4};
  std::size_t cut = 0;
  for (const StorageMode mode : modes) {
    for (const std::size_t threads : thread_counts) {
      JobManager manager(
          JobLimits{.machine_threads = threads, .job_slots = 2});
      // A long job: enough steps that every staggered cancel lands mid-run.
      ConfiguredExperiment victim = small_job(7, 8, 4000);
      victim.experiment.storage.mode = mode;
      victim.experiment.storage.spill_dir = spill_dir;
      victim.experiment.storage.auto_spill_bytes = 1;  // kAuto: force spill
      JobOptions options;
      options.analysis = JobAnalysis::kNone;
      const std::uint64_t id = manager.submit(victim, options);
      std::this_thread::sleep_for(std::chrono::milliseconds(1 + 7 * cut));
      ++cut;
      manager.cancel(id);
      try {
        (void)manager.wait(id);
        // The job may legitimately win the race and complete.
        EXPECT_EQ(manager.status(id).state, JobState::kDone);
      } catch (const CancelledError&) {
        EXPECT_EQ(manager.status(id).state, JobState::kCancelled);
      }
      EXPECT_EQ(spill_files_in(spill_dir), 0u)
          << "leaked spill file after cancel (mode " << static_cast<int>(mode)
          << ", threads " << threads << ")";

      // The same manager must still run a clean job to the exact
      // reference bits.
      const std::uint64_t follow_up = manager.submit(small_job(42, 6), options);
      const JobOutcome outcome = manager.wait(follow_up);
      EXPECT_TRUE(stores_bitwise_equal(reference, outcome.series));
    }
  }
  std::filesystem::remove_all(spill_dir);
}

TEST(CoreJobManager, CancelledShardKeepsValidManifestAndResumes) {
  const std::string shard_path =
      (std::filesystem::path(::testing::TempDir()) / "job_cancel.shard")
          .string();
  std::filesystem::remove(shard_path);
  std::filesystem::remove(shard_path + ".manifest");

  ConfiguredExperiment sharded = small_job(11, 10, 400);
  sharded.experiment.shard.path = shard_path;
  JobOptions options;
  options.analysis = JobAnalysis::kNone;

  {
    JobManager manager(JobLimits{.machine_threads = 2, .job_slots = 1});
    const std::uint64_t id = manager.submit(sharded, options);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    manager.cancel(id);
    try {
      (void)manager.wait(id);
    } catch (const CancelledError&) {
    }
  }

  // Whatever the cancel left behind, a resume must complete the shard and
  // match an uninterrupted run bitwise — the manifest only ever marks
  // samples whose bytes reached disk.
  ConfiguredExperiment resumed_config = sharded;
  resumed_config.experiment.shard.resume = true;
  JobManager manager(JobLimits{.machine_threads = 2, .job_slots = 1});
  const std::uint64_t id = manager.submit(resumed_config, options);
  const JobOutcome resumed = manager.wait(id);

  ConfiguredExperiment reference_config = small_job(11, 10, 400);
  const EnsembleSeries reference =
      run_experiment(reference_config.experiment);
  EXPECT_TRUE(stores_bitwise_equal(reference, resumed.series));

  std::filesystem::remove(shard_path);
  std::filesystem::remove(shard_path + ".manifest");
}

TEST(CoreJobManager, ShutdownTokenCancelsRunningJobs) {
  JobManager manager(JobLimits{.machine_threads = 2, .job_slots = 2});
  JobOptions options;
  options.analysis = JobAnalysis::kNone;
  const std::uint64_t id = manager.submit(small_job(2, 8, 4000), options);
  manager.shutdown_token().request();  // what a SIGINT handler does
  EXPECT_THROW((void)manager.wait(id), CancelledError);
}

// --------------------------------------------------------- serialization

TEST(CoreJobSerialization, SampleCsvIsTheExactRecordedGrid) {
  const EnsembleSeries series = run_experiment(small_job(8, 4).experiment);
  const std::string csv = sops::core::sample_recording_csv(series, 2);
  // Header plus one row per (frame, particle).
  const std::size_t rows =
      static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(rows, 1 + series.frame_count() * series.particle_count());
  EXPECT_EQ(csv.rfind("frame,step,particle,x,y\n", 0), 0u);
  // Spot-check the first data row against the store, max precision.
  char expected[128];
  const auto positions = series.frames.sample(0, 2);
  std::snprintf(expected, sizeof expected, "%zu,%zu,%zu,%.17g,%.17g\n",
                std::size_t{0}, series.frame_steps[0], std::size_t{0},
                positions[0].x, positions[0].y);
  EXPECT_NE(csv.find(expected), std::string::npos);
}

// sample_recording_csv formats with std::to_chars; the wire bytes must stay
// exactly printf's "%zu" / "%.17g" text for every finite double and every
// size_t, so the formatter is fuzzed against snprintf through the public
// function on a hand-built recording.
TEST(CoreJobSerialization, SampleCsvMatchesPrintfByteForByte) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> values{0.0,
                             -0.0,
                             1.0,
                             -1.0,
                             0.1,
                             1e16,
                             12345678901234567.0,
                             9007199254740993.0,
                             1e300,
                             -1e300,
                             1e-300,
                             -1e-300,
                             DBL_MAX,
                             -DBL_MAX,
                             DBL_MIN,
                             -DBL_MIN,
                             DBL_TRUE_MIN,
                             -DBL_TRUE_MIN,
                             DBL_MIN / 3.0,
                             std::nextafter(DBL_MIN, 0.0),
                             DBL_EPSILON,
                             1e-5,
                             1e-4,
                             123456.0,
                             1e17,
                             std::nextafter(1.0, kInf),
                             std::nextafter(1.0, 0.0)};
  for (int i = -20; i <= 20; ++i) {
    values.push_back(static_cast<double>(i));
    values.push_back(std::ldexp(1.0, 50 * i));
  }
  std::mt19937_64 bits(20240501);
  while (values.size() < 100000 + 128) {
    const std::uint64_t pattern = bits();
    double value = 0.0;
    std::memcpy(&value, &pattern, sizeof value);
    if (std::isfinite(value)) values.push_back(value);
  }

  // The step column carries the size_t extremes, one frame each.
  const std::vector<std::size_t> steps{
      0, 1, 9, 10, 99, 4294967295u, 4294967296u, 9007199254740993u,
      std::numeric_limits<std::size_t>::max() - 1,
      std::numeric_limits<std::size_t>::max()};
  const std::size_t particles = (values.size() + 2 * steps.size() - 1) /
                                (2 * steps.size());
  EnsembleSeries series;
  series.types.assign(particles, 0);
  series.frame_steps = steps;
  series.frames = sops::core::FrameStore(steps.size(), 1, particles);
  std::size_t next = 0;
  for (std::size_t f = 0; f < steps.size(); ++f) {
    for (sops::geom::Vec2& position : series.frames.sample_slot(f, 0)) {
      position.x = values[next++ % values.size()];
      position.y = values[next++ % values.size()];
    }
  }

  std::string expected = "frame,step,particle,x,y\n";
  char row[160];
  for (std::size_t f = 0; f < steps.size(); ++f) {
    const auto positions = series.frames.sample(f, 0);
    for (std::size_t p = 0; p < positions.size(); ++p) {
      std::snprintf(row, sizeof row, "%zu,%zu,%zu,%.17g,%.17g\n", f, steps[f],
                    p, positions[p].x, positions[p].y);
      expected += row;
    }
  }
  const std::string csv = sops::core::sample_recording_csv(series, 0);
  if (csv != expected) {
    // Name the first differing row rather than dumping megabytes.
    const std::size_t at = static_cast<std::size_t>(
        std::mismatch(csv.begin(), csv.end(), expected.begin(), expected.end())
            .first -
        csv.begin());
    const std::size_t begin = expected.rfind('\n', at) + 1;
    FAIL() << "first difference in row: "
           << expected.substr(begin, expected.find('\n', at) - begin)
           << "\ngot: " << csv.substr(begin, csv.find('\n', at) - begin);
  }
}

TEST(CoreJobSerialization, StatusJsonEscapesAndRoundsTrip) {
  JobStatus status;
  status.id = 7;
  status.state = JobState::kFailed;
  status.samples_done = 3;
  status.samples_total = 9;
  status.error = "bad \"path\"\nline2";
  const std::string json = sops::core::job_status_json(status);
  EXPECT_NE(json.find("\"id\":7"), std::string::npos);
  EXPECT_NE(json.find("\"state\":\"failed\""), std::string::npos);
  EXPECT_NE(json.find("\\\"path\\\""), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos) << "must stay one line";
}

TEST(CoreJobSerialization, FootprintProjection) {
  const ConfiguredExperiment config = small_job(1, 8, 20);
  const std::size_t n = config.experiment.simulation.types.size();
  // steps=20, stride=10 → frames {0, 10, 20} = 3 recorded frames.
  const std::size_t expected = 3 * 8 * n * sizeof(sops::geom::Vec2);
  EXPECT_EQ(JobManager::projected_payload_bytes(config.experiment), expected);
  EXPECT_EQ(JobManager::projected_resident_bytes(config.experiment), expected);

  ConfiguredExperiment mapped = config;
  mapped.experiment.storage.mode = StorageMode::kMapped;
  EXPECT_EQ(JobManager::projected_resident_bytes(mapped.experiment), 0u);

  ConfiguredExperiment sharded = config;
  sharded.experiment.shard.path = "x.shard";
  sharded.experiment.shard.index = 1;
  sharded.experiment.shard.count = 3;
  // Shard: slots chunk_range(1, 8, 3) → 3 samples, resident-free.
  EXPECT_EQ(JobManager::projected_payload_bytes(sharded.experiment),
            3 * 3 * n * sizeof(sops::geom::Vec2));
  EXPECT_EQ(JobManager::projected_resident_bytes(sharded.experiment), 0u);
}

}  // namespace
