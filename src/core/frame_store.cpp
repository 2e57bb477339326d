#include "core/frame_store.hpp"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>

#include "support/error.hpp"
#include "support/executor.hpp"
#include "support/parallel_for.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <dirent.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace sops::core {
namespace {

constexpr const char kSpillPrefix[] = "sops_frames_";
constexpr const char kSpillSuffix[] = ".spill";

// Spill files are private scratch; the name only has to be unique within
// the machine for the store's lifetime (MappedBuffer opens O_EXCL, so a
// collision fails the store instead of clobbering a live recording).
// pid + counter disambiguate live processes; the timestamp keeps a pid
// recycled after a crashed run (whose leaked file still holds the old
// name) from colliding with it.
std::string next_spill_path(const std::string& spill_dir) {
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t id = counter.fetch_add(1, std::memory_order_relaxed);
#if defined(__unix__) || defined(__APPLE__)
  const long pid = static_cast<long>(::getpid());
#else
  const long pid = 0;
#endif
  const auto stamp = std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::system_clock::now().time_since_epoch())
                         .count();
  std::string dir = spill_dir.empty() ? std::string(".") : spill_dir;
  if (dir.back() != '/') dir += '/';
  return dir + kSpillPrefix + std::to_string(pid) + "_" +
         std::to_string(stamp) + "_" + std::to_string(id) + kSpillSuffix;
}

#if defined(__unix__) || defined(__APPLE__)
// A leaked spill must sit untouched this long (by mtime) before the sweep
// may reclaim it — the second gate next to pid-liveness, so a file whose
// writer died a moment ago (or whose pid was recycled onto an unrelated
// live process, making the liveness probe lie in the *keep* direction
// only) is never in doubt.
constexpr std::chrono::seconds kStaleSpillMinAge{10 * 60};

// Parses the pid between "sops_frames_" and the next '_'; 0 on any
// deviation from the generated shape (someone else's file — leave it).
long spill_file_pid(const std::string& name) {
  const std::size_t prefix_len = sizeof(kSpillPrefix) - 1;
  const std::size_t suffix_len = sizeof(kSpillSuffix) - 1;
  if (name.size() <= prefix_len + suffix_len) return 0;
  if (name.compare(0, prefix_len, kSpillPrefix) != 0) return 0;
  if (name.compare(name.size() - suffix_len, suffix_len, kSpillSuffix) != 0) {
    return 0;
  }
  const std::size_t pid_end = name.find('_', prefix_len);
  if (pid_end == std::string::npos || pid_end == prefix_len) return 0;
  const std::string digits = name.substr(prefix_len, pid_end - prefix_len);
  char* end = nullptr;
  errno = 0;
  const long pid = std::strtol(digits.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0' || pid <= 0) return 0;
  return pid;
}
#endif

}  // namespace

void sweep_stale_spill_files(const std::string& spill_dir) noexcept {
#if defined(__unix__) || defined(__APPLE__)
  const std::string dir = spill_dir.empty() ? std::string(".") : spill_dir;
  ::DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) return;
  const auto now = std::chrono::system_clock::now();
  while (const struct ::dirent* entry = ::readdir(handle)) {
    const long pid = spill_file_pid(entry->d_name);
    if (pid == 0) continue;
    // kill(pid, 0) probes existence without signaling; only a definite
    // ESRCH counts as dead (EPERM means alive under another uid).
    if (::kill(static_cast<pid_t>(pid), 0) == 0 || errno != ESRCH) continue;
    const std::string path = dir + "/" + entry->d_name;
    struct ::stat info {};
    if (::stat(path.c_str(), &info) != 0) continue;
    const auto mtime = std::chrono::system_clock::from_time_t(info.st_mtime);
    if (now - mtime < kStaleSpillMinAge) continue;
    ::unlink(path.c_str());  // best effort; a racing sweep may win
  }
  ::closedir(handle);
#else
  (void)spill_dir;
#endif
}

FrameStore::FrameStore(std::size_t frames, std::size_t samples,
                       std::size_t particles)
    : FrameStore(frames, samples, particles, FrameStoreOptions{}) {}

FrameStore::FrameStore(std::size_t frames, std::size_t samples,
                       std::size_t particles, const FrameStoreOptions& options)
    : frames_(frames), samples_(samples), particles_(particles) {
  support::expect(frames >= 1 && samples >= 1 && particles >= 1,
                  "FrameStore: all dimensions must be positive");
  const std::size_t payload = bytes();

  if (!options.shard_path.empty()) {
    // Durable shard: the mapping *is* the recording, so there is no heap
    // fallback — a store that silently could not persist would defeat the
    // whole checkpoint/restart contract.
    io::MappedBuffer buffer =
        options.open_existing
            ? io::MappedBuffer::open_existing(options.shard_path, payload)
            : io::MappedBuffer(options.shard_path, payload,
                               io::MappedBuffer::Lifetime::kPersist);
    if (!buffer.mapped()) {
      throw Error("FrameStore: cannot " +
                  std::string(options.open_existing ? "reopen" : "create") +
                  " shard '" + options.shard_path +
                  "': " + buffer.failure_reason());
    }
    data_ = static_cast<geom::Vec2*>(buffer.data());
    buffer_ = std::move(buffer);
    io_error_ = std::make_unique<IoErrorState>();
    return;
  }

  const bool spill =
      options.mode == StorageMode::kMapped ||
      (options.mode == StorageMode::kAuto && payload >= options.auto_spill_bytes);
  if (spill) {
    // Before adding a scratch file, reclaim ones leaked by crashed runs —
    // a multi-hour spill that died at hour three otherwise sits in
    // spill_dir forever, silently eating the disk the next run needs.
    sweep_stale_spill_files(options.spill_dir);
    // No heap fallback: admission charged a spilled store nothing, so a
    // store that quietly held its payload on the heap would grow memory
    // past the budget unseen.
    io::MappedBuffer buffer(next_spill_path(options.spill_dir), payload);
    if (!buffer.mapped()) {
      throw Error("FrameStore: cannot create spill file in '" +
                  options.spill_dir + "': " + buffer.failure_reason());
    }
    // Fresh file pages read as zero, matching the heap vector's value
    // initialization; Vec2 is an implicit-lifetime type, so the mapped
    // block is usable as a Vec2 array without touching its pages (an
    // explicit construction pass would fault the whole payload in upfront,
    // defeating the spill).
    data_ = static_cast<geom::Vec2*>(buffer.data());
    buffer_ = std::move(buffer);
    io_error_ = std::make_unique<IoErrorState>();
    return;
  }
  heap_.resize(frames * samples * particles);
  data_ = heap_.data();
}

geom::FrameView FrameStore::front() const {
  support::expect(!empty(), "FrameStore::front: store has no frames");
  return (*this)[0];
}

geom::FrameView FrameStore::back() const {
  support::expect(!empty(), "FrameStore::back: store has no frames");
  return (*this)[frames_ - 1];
}

std::string FrameStore::flush_error() const {
  if (io_error_ == nullptr) return {};
  const std::lock_guard<std::mutex> lock(io_error_->mutex);
  return io_error_->message;
}

void FrameStore::note_io_error(const char* operation) {
  // errno is thread-local, so the text is captured on the failing thread;
  // only the first failure is kept (the root cause, not the cascade).
  const std::string message =
      std::string(operation) + ": " + std::strerror(errno);
  const std::lock_guard<std::mutex> lock(io_error_->mutex);
  if (io_error_->message.empty()) io_error_->message = message;
}

// Shared frame-axis sharding of flush_samples/sync_samples: runs
// `flush(f)` for every frame, over the executor when one with width was
// lent. Sample range [begin, end) of frame f is one contiguous extent;
// extents of different frames (and of disjoint sample ranges) never
// overlap, so any sharding of the frame axis touches disjoint file ranges.
template <typename FlushFrame>
void FrameStore::for_each_frame_extent(const support::Executor* executor,
                                       FlushFrame&& flush) {
  if (executor == nullptr || executor->width() <= 1 || frames_ == 1) {
    for (std::size_t f = 0; f < frames_; ++f) flush(f);
    return;
  }
  support::parallel_for(*executor, 0, frames_,
                        [&](std::size_t f) { flush(f); });
}

void FrameStore::flush_samples(std::size_t begin, std::size_t end,
                               const support::Executor* executor) {
  support::expect(begin <= end && end <= samples_,
                  "FrameStore::flush_samples: sample range out of bounds");
  if (!buffer_.mapped() || begin == end) return;
  const std::size_t extent = (end - begin) * particles_ * sizeof(geom::Vec2);
  for_each_frame_extent(executor, [&](std::size_t f) {
    const std::size_t offset =
        (f * samples_ + begin) * particles_ * sizeof(geom::Vec2);
    if (!buffer_.flush(offset, extent)) note_io_error("msync");
    if (!buffer_.release(offset, extent)) note_io_error("madvise");
  });
}

bool FrameStore::sync_samples(std::size_t begin, std::size_t end,
                              const support::Executor* executor) {
  support::expect(begin <= end && end <= samples_,
                  "FrameStore::sync_samples: sample range out of bounds");
  if (!buffer_.mapped() || begin == end) return true;
  const std::size_t extent = (end - begin) * particles_ * sizeof(geom::Vec2);
  std::atomic<bool> ok{true};
  for_each_frame_extent(executor, [&](std::size_t f) {
    const std::size_t offset =
        (f * samples_ + begin) * particles_ * sizeof(geom::Vec2);
    if (!buffer_.sync(offset, extent)) {
      note_io_error("msync (MS_SYNC)");
      ok.store(false, std::memory_order_relaxed);
      return;  // don't drop pages whose disk copy is unconfirmed
    }
    if (!buffer_.release(offset, extent)) note_io_error("madvise");
  });
  return ok.load(std::memory_order_relaxed);
}

}  // namespace sops::core
