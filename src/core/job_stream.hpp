// Per-job fan-out of protocol frames to the daemon's watchers.
//
// A job's frames (state events, per-sample CSV, the curve, the terminal
// job_done) are pushed once by the job's threads and handed to every
// watcher of that job. Each frame is held once, as a shared immutable
// io::Frame, by the job's channel history and by every subscriber queue it
// is delivered to — nothing is copied per watcher.
//
// Retention is bounded by delivery, not by the daemon's lifetime:
//
//  - While a job runs, its channel keeps the frames pushed so far, so a
//    watcher that attaches mid-run is seeded with the whole history before
//    it switches to live delivery, and misses nothing.
//  - When the terminal frame is pushed and at least one watcher is live,
//    every live watcher already has every frame queued: the channel is
//    erased, and the frames die as the watchers drain them.
//  - A job that ends with no watcher keeps its channel until the first
//    subscribe, which replays it and erases it — the stream is handed out
//    once, like JobManager::wait's outcome. A later subscribe of that job
//    finds no channel and gets nullptr; the daemon then answers with the
//    job's terminal status alone.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "io/frame_protocol.hpp"

namespace sops::core {

/// One frame, shared by a channel's history and its subscribers' queues.
using SharedFrame = std::shared_ptr<const io::Frame>;

/// One watcher's delivery queue: pushes append, the watcher's connection
/// thread pops and writes. Decouples the simulation workers from client
/// socket speed.
class FrameQueue {
 public:
  /// Blocks until a frame is queued or the stream has ended. Returns the
  /// next frame, or nullptr once the terminal frame has been popped.
  [[nodiscard]] SharedFrame pop();

 private:
  friend class JobBroadcast;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<SharedFrame> frames_;
  bool done_ = false;  // terminal frame enqueued; drain, then end
};

/// Per-job frame fan-out with replay and delivery-bounded retention (see
/// the file comment). Thread-safe.
class JobBroadcast {
 public:
  /// Appends a frame to `job`'s stream and delivers it to every live
  /// subscriber. `terminal` marks the stream's last frame.
  void push(std::uint64_t job, io::FrameType type, std::string payload,
            bool terminal = false);

  /// Registers a watcher of `job` and seeds its queue with the job's
  /// history — atomically, so no frame is lost or duplicated around the
  /// handoff. Returns nullptr when the job's stream was already handed out.
  /// `finished` tells, for a job with no channel, a terminal job (its
  /// stream is gone) from one whose first frame is still to come (the
  /// channel opens now); it is called under the broadcast's lock, so it
  /// must not call back into this object.
  [[nodiscard]] std::shared_ptr<FrameQueue> subscribe(
      std::uint64_t job, const std::function<bool()>& finished);

  /// Drops a watcher that stops reading (its client hung up). A no-op once
  /// the job's channel is gone.
  void unsubscribe(std::uint64_t job, const std::shared_ptr<FrameQueue>& queue);

  /// Channels currently held: running jobs, plus finished jobs that no
  /// watcher has read yet.
  [[nodiscard]] std::size_t channel_count() const;

 private:
  struct Channel {
    std::vector<SharedFrame> history;
    std::vector<std::shared_ptr<FrameQueue>> subscribers;
    bool finished = false;
  };

  mutable std::mutex mutex_;
  std::map<std::uint64_t, Channel> channels_;
};

}  // namespace sops::core
