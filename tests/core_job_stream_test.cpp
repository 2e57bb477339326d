// JobBroadcast tests: every watcher gets every frame of its job exactly
// once and in order, however it races the job's pushes, and no job's
// frames outlive their delivery — a channel is erased when its terminal
// frame reaches a live watcher, or when its first late watcher replays it.
//
// Named core_job_* so the CI TSan leg runs the concurrent push/subscribe
// case (see .github/workflows/ci.yml).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/job_stream.hpp"

namespace {

using sops::core::FrameQueue;
using sops::core::JobBroadcast;
using sops::core::SharedFrame;
using sops::io::FrameType;

bool never_finished() { return false; }
bool finished() { return true; }

// Pops until the stream ends; the queue's stream must already be complete.
std::vector<std::string> drain(FrameQueue& queue) {
  std::vector<std::string> payloads;
  while (const SharedFrame frame = queue.pop()) {
    payloads.push_back(frame->payload);
  }
  return payloads;
}

void push_job(JobBroadcast& broadcast, std::uint64_t job) {
  broadcast.push(job, FrameType::kJobEvent, "queued");
  broadcast.push(job, FrameType::kSampleCsv, "s0");
  broadcast.push(job, FrameType::kSampleCsv, "s1");
  broadcast.push(job, FrameType::kJobDone, "done", /*terminal=*/true);
}

const std::vector<std::string> kWholeJob{"queued", "s0", "s1", "done"};

TEST(CoreJobStream, LiveWatchersShareFramesAndTheChannelGoesAtTheEnd) {
  JobBroadcast broadcast;
  broadcast.push(1, FrameType::kJobEvent, "queued");
  const auto early = broadcast.subscribe(1, never_finished);
  broadcast.push(1, FrameType::kSampleCsv, "s0");
  const auto late = broadcast.subscribe(1, never_finished);  // mid-run
  ASSERT_NE(early, nullptr);
  ASSERT_NE(late, nullptr);
  broadcast.push(1, FrameType::kSampleCsv, "s1");
  EXPECT_EQ(broadcast.channel_count(), 1u);

  broadcast.push(1, FrameType::kJobDone, "done", /*terminal=*/true);
  EXPECT_EQ(broadcast.channel_count(), 0u)
      << "every live watcher holds the stream; the channel must be gone";

  // One frame object per push, shared by both queues.
  std::vector<SharedFrame> early_frames;
  while (SharedFrame frame = early->pop()) early_frames.push_back(frame);
  std::vector<SharedFrame> late_frames;
  while (SharedFrame frame = late->pop()) late_frames.push_back(frame);
  ASSERT_EQ(early_frames.size(), kWholeJob.size());
  ASSERT_EQ(late_frames.size(), kWholeJob.size());
  for (std::size_t i = 0; i < kWholeJob.size(); ++i) {
    EXPECT_EQ(early_frames[i]->payload, kWholeJob[i]);
    EXPECT_EQ(early_frames[i].get(), late_frames[i].get()) << "frame " << i;
  }
  // Once the queues drain, the watchers hold the frames' last references.
  EXPECT_EQ(early_frames.back().use_count(), 2);
}

TEST(CoreJobStream, UnwatchedJobIsReplayedOnceThenGone) {
  JobBroadcast broadcast;
  push_job(broadcast, 7);
  EXPECT_EQ(broadcast.channel_count(), 1u) << "kept for its first watcher";

  const auto first = broadcast.subscribe(7, finished);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(broadcast.channel_count(), 0u);
  EXPECT_EQ(drain(*first), kWholeJob);

  EXPECT_EQ(broadcast.subscribe(7, finished), nullptr)
      << "a finished job's stream is handed out once";
}

TEST(CoreJobStream, WatchBeforeTheFirstFrameOpensTheChannel) {
  JobBroadcast broadcast;
  const auto sub = broadcast.subscribe(3, never_finished);
  ASSERT_NE(sub, nullptr);
  EXPECT_EQ(broadcast.channel_count(), 1u);
  push_job(broadcast, 3);
  EXPECT_EQ(broadcast.channel_count(), 0u);
  EXPECT_EQ(drain(*sub), kWholeJob);
}

TEST(CoreJobStream, WatcherThatHangsUpLeavesTheStreamForTheNextWatch) {
  JobBroadcast broadcast;
  broadcast.push(2, FrameType::kJobEvent, "queued");
  const auto gone = broadcast.subscribe(2, never_finished);
  broadcast.push(2, FrameType::kSampleCsv, "s0");
  broadcast.unsubscribe(2, gone);
  broadcast.push(2, FrameType::kSampleCsv, "s1");
  broadcast.push(2, FrameType::kJobDone, "done", /*terminal=*/true);
  EXPECT_EQ(broadcast.channel_count(), 1u)
      << "no watcher was live at the end; keep the stream for the next";

  const auto next = broadcast.subscribe(2, finished);
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(drain(*next), kWholeJob);
  EXPECT_EQ(broadcast.channel_count(), 0u);
  broadcast.unsubscribe(2, next);  // a no-op once the channel is gone
}

// Two jobs push concurrently while watchers subscribe at staggered points
// of each stream: every watcher must see its job's frames exactly once, in
// push order, whether they reached it by replay or live.
TEST(CoreJobStream, ConcurrentPushAndSubscribeLoseAndDuplicateNothing) {
  constexpr std::size_t kFrames = 2000;
  constexpr std::size_t kWatchers = 4;
  constexpr std::uint64_t kJobs = 2;
  JobBroadcast broadcast;
  std::atomic<std::size_t> pushed[kJobs] = {};
  std::atomic<std::size_t> subscribed[kJobs] = {};
  std::vector<std::vector<std::string>> seen(kJobs * kWatchers);

  std::vector<std::thread> threads;
  for (std::uint64_t job = 0; job < kJobs; ++job) {
    threads.emplace_back([&, job] {
      for (std::size_t i = 0; i < kFrames; ++i) {
        broadcast.push(job, FrameType::kSampleCsv, std::to_string(i));
        pushed[job].store(i + 1, std::memory_order_release);
      }
      // The terminal frame waits for every watcher, so none arrives after
      // the stream was handed out.
      while (subscribed[job].load(std::memory_order_acquire) < kWatchers) {
        std::this_thread::yield();
      }
      broadcast.push(job, FrameType::kJobDone, "done", /*terminal=*/true);
    });
    for (std::size_t w = 0; w < kWatchers; ++w) {
      threads.emplace_back([&, job, w] {
        while (pushed[job].load(std::memory_order_acquire) <
               w * kFrames / kWatchers) {
          std::this_thread::yield();
        }
        const auto sub = broadcast.subscribe(job, never_finished);
        subscribed[job].fetch_add(1, std::memory_order_acq_rel);
        seen[job * kWatchers + w] = drain(*sub);
      });
    }
  }
  for (std::thread& thread : threads) thread.join();

  std::vector<std::string> expected;
  for (std::size_t i = 0; i < kFrames; ++i) expected.push_back(std::to_string(i));
  expected.push_back("done");
  for (std::size_t v = 0; v < seen.size(); ++v) {
    EXPECT_EQ(seen[v], expected) << "job " << v / kWatchers << " watcher "
                                 << v % kWatchers;
  }
  EXPECT_EQ(broadcast.channel_count(), 0u);
}

}  // namespace
