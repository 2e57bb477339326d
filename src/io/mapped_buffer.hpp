// RAII memory-mapped scratch buffers — the disk backing of spilled
// FrameStores.
//
// A MappedBuffer owns one file-backed, shared, read-write mapping created
// at full size upfront (ftruncate + mmap): callers that know their total
// payload before the first write — the recording grid F·m·n is fixed
// before a simulation step runs — get a flat byte block whose pages the
// kernel can write back and evict instead of anonymous memory it cannot.
// flush()/release() expose the msync/madvise hooks the spill path uses to
// push finished extents to disk and drop them from the process's resident
// set while producers keep writing other extents.
//
// On any failure (unwritable directory, exhausted descriptors, a platform
// without mmap) the buffer stays empty and records the reason; callers
// decide what a failed mapping means. A spilled FrameStore falls back to
// its own heap storage, a durable shard turns it into an error.
//
// Two lifetimes: the default scratch buffer unlinks its file on destroy
// (spill data dies with the store), while a persist buffer keeps the file —
// synced with msync(MS_SYNC) on clean close — so a recording shard survives
// the process and can be reopened later (open_existing, size-validated).
// Persist is the backing of crash-safe shard recordings (core::FrameStore
// shard mode).
#pragma once

#include <cstddef>
#include <string>

namespace sops::io {

/// One file-backed byte buffer of fixed size (empty when mapping failed).
class MappedBuffer {
 public:
  /// What happens to the backing file when the buffer is destroyed:
  /// scratch is unlinked (spill data dies with the store), persist is kept
  /// and synced (msync MS_SYNC) so the bytes are durable on disk.
  enum class Lifetime { kScratch, kPersist };

  MappedBuffer() = default;
  /// Creates `path` (O_EXCL — never clobbers an existing file) at `bytes`
  /// and maps it shared read-write with its blocks reserved upfront. The
  /// content starts zeroed (fresh file pages read as zero). `bytes` must be
  /// positive. On any failure the buffer is empty; see failure_reason().
  MappedBuffer(const std::string& path, std::size_t bytes,
               Lifetime lifetime = Lifetime::kScratch);
  /// Reopens an existing file (no O_EXCL, no truncate) and maps it shared
  /// read-write. The file's size must be exactly `bytes` — a mismatch is a
  /// failure (the buffer stays empty, see failure_reason()), because a
  /// resumed shard whose payload geometry changed would silently read
  /// garbage. The buffer is always Lifetime::kPersist: reopening only makes
  /// sense for files meant to outlive their writers.
  [[nodiscard]] static MappedBuffer open_existing(const std::string& path,
                                                  std::size_t bytes);
  /// Scratch: unmaps, closes, and removes the backing file (nothing should
  /// outlive the buffer). A killed process leaks its file — callers embed a
  /// timestamp in the name (see FrameStore) so a later run never collides
  /// with a leaked one, and sweep stale leaks at the next store creation.
  /// Persist: syncs dirty pages to disk (MS_SYNC) and keeps the file.
  ~MappedBuffer();

  MappedBuffer(MappedBuffer&& other) noexcept;
  MappedBuffer& operator=(MappedBuffer&& other) noexcept;
  MappedBuffer(const MappedBuffer&) = delete;
  MappedBuffer& operator=(const MappedBuffer&) = delete;

  [[nodiscard]] void* data() noexcept { return data_; }
  [[nodiscard]] const void* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// True when the buffer is file-backed; false when the mapping failed
  /// (and for a default-constructed buffer).
  [[nodiscard]] bool mapped() const noexcept { return mapped_; }
  /// Whether the backing file survives destruction (kPersist) or is scratch.
  [[nodiscard]] Lifetime lifetime() const noexcept { return lifetime_; }
  /// Path of the backing file; empty unless mapped().
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  /// Why the mapping failed; empty when mapped() or default-constructed.
  [[nodiscard]] const std::string& failure_reason() const noexcept {
    return failure_reason_;
  }

  /// Schedules writeback of the pages covering [offset, offset + length)
  /// to the backing file (msync MS_ASYNC — spill data is scratch, so no
  /// caller needs a durability barrier and flushing must not stall
  /// simulation workers on disk; the range is rounded outward to page
  /// boundaries, which is safe even next to extents other threads still
  /// write). No-op on an empty buffer. Returns false when the msync itself
  /// failed.
  bool flush(std::size_t offset, std::size_t length) noexcept;

  /// Durable variant of flush(): msync(MS_SYNC) blocks until the pages
  /// covering [offset, offset + length) are on disk. This is the barrier a
  /// persist shard needs before marking a sample complete in its manifest —
  /// the completion bit must never be set while the sample's bytes are only
  /// in the page cache. Returns true on an empty buffer (nothing to sync),
  /// false when the msync failed.
  bool sync(std::size_t offset, std::size_t length) noexcept;

  /// Drops the pages *fully inside* [offset, offset + length) from this
  /// process's resident set (madvise MADV_DONTNEED; rounded inward so
  /// boundary pages shared with neighboring extents are never touched).
  /// On a shared file mapping the data survives — in the page cache or the
  /// file — and faults back in on the next access; this is what turns the
  /// mapping into an actual RSS reduction. No-op on an empty buffer.
  bool release(std::size_t offset, std::size_t length) noexcept;

  /// Hints the kernel that the buffer will be read front to back (the
  /// analyzer's access pattern over a recorded store). No-op when empty.
  void advise_sequential() noexcept;

 private:
  void reset() noexcept;

  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  int fd_ = -1;
  bool mapped_ = false;
  Lifetime lifetime_ = Lifetime::kScratch;
  std::string path_;
  std::string failure_reason_;
};

}  // namespace sops::io
