// Recording-hook tests: run_experiment streams each finished sample to
// ExperimentConfig::on_sample_recorded and announces the series once through
// on_recording_started. The hooks must see exactly the bytes the finished
// recording holds, once per simulated sample, across thread counts and
// frame-store backings; they must not change the recording; a fully resumed
// shard replays nothing; and a throwing start hook stops the run before any
// sample simulates.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "core/presets.hpp"
#include "geom/vec2.hpp"

namespace {

using sops::core::EnsembleSeries;
using sops::core::ExperimentConfig;
using sops::core::run_experiment;
using sops::geom::Vec2;

ExperimentConfig small_experiment(std::size_t samples = 12,
                                  std::size_t steps = 20) {
  sops::sim::SimulationConfig simulation =
      sops::core::presets::fig4_three_type_collective();
  simulation.steps = steps;
  simulation.record_stride = steps / 2;  // three recorded frames
  ExperimentConfig experiment(simulation);
  experiment.samples = samples;
  return experiment;
}

void expect_same_recording(const EnsembleSeries& a, const EnsembleSeries& b) {
  EXPECT_EQ(a.frame_steps, b.frame_steps);
  EXPECT_EQ(a.equilibrium_steps, b.equilibrium_steps);
  ASSERT_EQ(a.frame_count(), b.frame_count());
  ASSERT_EQ(a.sample_count(), b.sample_count());
  for (std::size_t f = 0; f < a.frame_count(); ++f) {
    for (std::size_t s = 0; s < a.sample_count(); ++s) {
      const auto pa = a.frames.sample(f, s);
      const auto pb = b.frames.sample(f, s);
      ASSERT_EQ(pa.size(), pb.size());
      for (std::size_t i = 0; i < pa.size(); ++i) {
        ASSERT_EQ(pa[i].x, pb[i].x) << "f=" << f << " s=" << s << " i=" << i;
        ASSERT_EQ(pa[i].y, pb[i].y) << "f=" << f << " s=" << s << " i=" << i;
      }
    }
  }
}

// Everything the hooks saw, gathered under a lock (on_sample_recorded runs
// on the sample workers).
struct HookLog {
  std::mutex mutex;
  std::size_t started = 0;
  std::thread::id started_on;
  std::size_t frames_at_start = 0;
  std::size_t resumed_at_start = 0;
  bool sample_before_start = false;
  std::vector<std::size_t> sample_calls;  // per local sample
  // The sample's slots copied out inside its hook, per frame.
  std::vector<std::vector<std::vector<Vec2>>> seen;

  void attach(ExperimentConfig& experiment) {
    experiment.on_recording_started = [this](const EnsembleSeries& series) {
      const std::lock_guard<std::mutex> lock(mutex);
      ++started;
      started_on = std::this_thread::get_id();
      frames_at_start = series.frame_steps.size();
      resumed_at_start = series.resumed_samples;
      sample_calls.assign(series.sample_count(), 0);
      seen.assign(series.sample_count(), {});
    };
    experiment.on_sample_recorded = [this](const EnsembleSeries& series,
                                           std::size_t local) {
      std::vector<std::vector<Vec2>> frames;
      for (std::size_t f = 0; f < series.frame_count(); ++f) {
        const auto slot = series.frames.sample(f, local);
        frames.emplace_back(slot.begin(), slot.end());
      }
      const std::lock_guard<std::mutex> lock(mutex);
      if (started == 0 || local >= sample_calls.size()) {
        sample_before_start = true;
        return;
      }
      ++sample_calls[local];
      seen[local] = std::move(frames);
    };
  }
};

void expect_hooks_saw_final_bytes(const HookLog& log,
                                  const EnsembleSeries& series) {
  EXPECT_EQ(log.started, 1u);
  EXPECT_EQ(log.started_on, std::this_thread::get_id());
  EXPECT_EQ(log.frames_at_start, series.frame_count());
  EXPECT_FALSE(log.sample_before_start);
  ASSERT_EQ(log.sample_calls.size(), series.sample_count());
  for (std::size_t s = 0; s < series.sample_count(); ++s) {
    EXPECT_EQ(log.sample_calls[s], 1u) << "sample " << s;
    ASSERT_EQ(log.seen[s].size(), series.frame_count()) << "sample " << s;
    for (std::size_t f = 0; f < series.frame_count(); ++f) {
      const auto final_slot = series.frames.sample(f, s);
      ASSERT_EQ(log.seen[s][f].size(), final_slot.size());
      for (std::size_t i = 0; i < final_slot.size(); ++i) {
        ASSERT_EQ(log.seen[s][f][i].x, final_slot[i].x)
            << "f=" << f << " s=" << s << " i=" << i;
        ASSERT_EQ(log.seen[s][f][i].y, final_slot[i].y)
            << "f=" << f << " s=" << s << " i=" << i;
      }
    }
  }
}

TEST(RecordingHooks, EachSampleArrivesOnceWithItsFinalBytes) {
  const EnsembleSeries reference = run_experiment(small_experiment());
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const auto mode : {sops::core::StorageMode::kHeap,
                            sops::core::StorageMode::kMapped}) {
      ExperimentConfig experiment = small_experiment();
      experiment.threads = threads;
      experiment.storage.mode = mode;
      experiment.storage.spill_dir = ::testing::TempDir();
      HookLog log;
      log.attach(experiment);
      const EnsembleSeries series = run_experiment(experiment);
      EXPECT_EQ(log.resumed_at_start, 0u);
      expect_hooks_saw_final_bytes(log, series);
      // The hooks only watch: the recording is the hookless one.
      expect_same_recording(series, reference);
    }
  }
}

TEST(RecordingHooks, FullyResumedShardReplaysNothing) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "hooks_resume.shard")
          .string();
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".manifest");

  ExperimentConfig experiment = small_experiment();
  experiment.shard.path = path;
  HookLog fresh_log;
  fresh_log.attach(experiment);
  const EnsembleSeries fresh = run_experiment(experiment);
  expect_hooks_saw_final_bytes(fresh_log, fresh);

  // Every sample is complete in the manifest: the start hook reports them
  // as resumed and no sample hook fires (their completing run announced
  // them).
  experiment.shard.resume = true;
  HookLog resumed_log;
  resumed_log.attach(experiment);
  const EnsembleSeries resumed = run_experiment(experiment);
  EXPECT_EQ(resumed_log.started, 1u);
  EXPECT_EQ(resumed_log.resumed_at_start, resumed.sample_count());
  EXPECT_FALSE(resumed_log.sample_before_start);
  for (const std::size_t calls : resumed_log.sample_calls) {
    EXPECT_EQ(calls, 0u);
  }
  expect_same_recording(resumed, fresh);

  std::filesystem::remove(path);
  std::filesystem::remove(path + ".manifest");
}

TEST(RecordingHooks, ThrowingStartHookStopsBeforeAnySample) {
  ExperimentConfig experiment = small_experiment();
  std::atomic<std::size_t> samples{0};
  experiment.on_recording_started = [](const EnsembleSeries&) {
    throw std::runtime_error("start hook refused");
  };
  experiment.on_sample_recorded = [&samples](const EnsembleSeries&,
                                             std::size_t) { ++samples; };
  EXPECT_THROW((void)run_experiment(experiment), std::runtime_error);
  EXPECT_EQ(samples.load(), 0u);
}

}  // namespace
