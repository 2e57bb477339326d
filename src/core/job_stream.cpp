#include "core/job_stream.hpp"

#include <algorithm>
#include <utility>

namespace sops::core {

SharedFrame FrameQueue::pop() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return !frames_.empty() || done_; });
  if (frames_.empty()) return nullptr;
  SharedFrame frame = std::move(frames_.front());
  frames_.pop_front();
  return frame;
}

void JobBroadcast::push(std::uint64_t job, io::FrameType type,
                        std::string payload, bool terminal) {
  const SharedFrame frame =
      std::make_shared<const io::Frame>(io::Frame{type, std::move(payload)});
  const std::lock_guard<std::mutex> lock(mutex_);
  Channel& channel = channels_[job];
  for (const std::shared_ptr<FrameQueue>& sub : channel.subscribers) {
    {
      const std::lock_guard<std::mutex> sub_lock(sub->mutex_);
      sub->frames_.push_back(frame);
      sub->done_ = sub->done_ || terminal;
    }
    sub->cv_.notify_all();
  }
  if (terminal && !channel.subscribers.empty()) {
    // Every live watcher holds the whole stream now; nobody else needs it.
    channels_.erase(job);
    return;
  }
  channel.history.push_back(frame);
  channel.finished = channel.finished || terminal;
}

std::shared_ptr<FrameQueue> JobBroadcast::subscribe(
    std::uint64_t job, const std::function<bool()>& finished) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = channels_.find(job);
  if (it == channels_.end()) {
    // Channels are erased only after their terminal frame, which a job
    // pushes only once it is terminal — so a finished job without a
    // channel has had its stream handed out already.
    if (finished()) return nullptr;
    it = channels_.emplace(job, Channel{}).first;
  }
  Channel& channel = it->second;
  auto sub = std::make_shared<FrameQueue>();
  {
    const std::lock_guard<std::mutex> sub_lock(sub->mutex_);
    sub->frames_.assign(channel.history.begin(), channel.history.end());
    sub->done_ = channel.finished;
  }
  if (channel.finished) {
    channels_.erase(it);  // replayed once; the stream is this watcher's now
  } else {
    channel.subscribers.push_back(sub);
  }
  return sub;
}

void JobBroadcast::unsubscribe(std::uint64_t job,
                               const std::shared_ptr<FrameQueue>& queue) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = channels_.find(job);
  if (it == channels_.end()) return;
  auto& subs = it->second.subscribers;
  subs.erase(std::remove(subs.begin(), subs.end(), queue), subs.end());
}

std::size_t JobBroadcast::channel_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return channels_.size();
}

}  // namespace sops::core
