// In-memory span recorder for the traced run. Spans are recorded around the
// benchmark's own calls into each layer's public functions, kept in memory,
// and written out when the run ends: Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto) plus a per-name self-time table.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace e2e {

class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::int64_t start_ns = 0;  ///< since the tracer's epoch
    std::int64_t end_ns = 0;
    std::uint32_t thread = 0;   ///< recording thread; set by record()
    std::int64_t job = -1;      ///< job id, -1 when not job-scoped
    std::int64_t frame = -1;    ///< frame (or step) index, -1 when none
  };

  Tracer() : epoch_(Clock::now()) {}

  [[nodiscard]] std::int64_t to_ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }
  [[nodiscard]] std::uint64_t next_id();
  /// Thread-safe.
  void record(Span span);

  /// Sum / count / mean duration of every span called `name`.
  [[nodiscard]] double total_s(const std::string& name) const;
  [[nodiscard]] std::size_t count(const std::string& name) const;
  [[nodiscard]] double mean_s(const std::string& name) const;

  void write_chrome_json(const std::string& path,
                         const std::string& host) const;
  /// One row per span name: count, total, self time (duration minus the
  /// part of it the span's children cover), mean.
  void write_self_time_table(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

/// Records one span from construction to close() / destruction. A null
/// tracer makes it a no-op, which is how the untraced run uses the same code.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, std::uint64_t parent,
             std::int64_t job = -1, std::int64_t frame = -1);
  ~ScopedSpan() { close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return span_.id; }
  /// Ends the span (idempotent); returns its duration in seconds.
  double close();

 private:
  Tracer* tracer_;
  Clock::time_point start_;
  Tracer::Span span_;
  bool open_ = true;
  double seconds_ = 0.0;
};

}  // namespace e2e
