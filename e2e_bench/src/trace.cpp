#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <unordered_map>

namespace e2e {
namespace {

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next++;
  return index;
}

}  // namespace

std::uint64_t Tracer::next_id() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Tracer::record(Span span) {
  span.thread = thread_index();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

double Tracer::total_s(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::int64_t ns = 0;
  for (const Span& span : spans_) {
    if (span.name == name) ns += span.end_ns - span.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

std::size_t Tracer::count(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [&](const Span& span) { return span.name == name; }));
}

double Tracer::mean_s(const std::string& name) const {
  const std::size_t n = count(name);
  return n == 0 ? 0.0 : total_s(name) / static_cast<double>(n);
}

void Tracer::write_chrome_json(const std::string& path,
                               const std::string& host) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"host\":" << host
      << "},\"traceEvents\":[\n";
  char buffer[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::snprintf(buffer, sizeof buffer,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"parent\":%llu,\"job\":%lld,\"frame\":%lld}}%s\n",
                  span.name.c_str(), span.thread,
                  static_cast<double>(span.start_ns) * 1e-3,
                  static_cast<double>(span.end_ns - span.start_ns) * 1e-3,
                  static_cast<unsigned long long>(span.id),
                  static_cast<unsigned long long>(span.parent),
                  static_cast<long long>(span.job),
                  static_cast<long long>(span.frame),
                  i + 1 < spans_.size() ? "," : "");
    out << buffer;
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("cannot write trace file " + path);
}

void Tracer::write_self_time_table(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& span : spans_) {
    if (span.parent != 0) children[span.parent].push_back(&span);
  }
  struct Row {
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, Row> rows;
  for (const Span& span : spans_) {
    // Union of the children's intervals, clipped to the parent: children
    // on several threads overlap each other, and only covered time counts.
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    const auto it = children.find(span.id);
    if (it != children.end()) {
      for (const Span* child : it->second) {
        const std::int64_t begin = std::max(child->start_ns, span.start_ns);
        const std::int64_t end = std::min(child->end_ns, span.end_ns);
        if (end > begin) covered.emplace_back(begin, end);
      }
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t covered_ns = 0;
    std::int64_t reach = span.start_ns;
    for (const auto& [begin, end] : covered) {
      const std::int64_t from = std::max(begin, reach);
      if (end > from) covered_ns += end - from;
      reach = std::max(reach, end);
    }
    const std::int64_t duration = span.end_ns - span.start_ns;
    Row& row = rows[span.name];
    ++row.count;
    row.total_s += static_cast<double>(duration) * 1e-9;
    row.self_s += static_cast<double>(duration - covered_ns) * 1e-9;
  }

  std::ofstream out(path);
  char buffer[256];
  std::snprintf(buffer, sizeof buffer, "%-28s %10s %14s %14s %14s\n", "span",
                "count", "total_ms", "self_ms", "mean_ms");
  out << buffer;
  for (const auto& [name, row] : rows) {
    std::snprintf(buffer, sizeof buffer, "%-28s %10zu %14.4f %14.4f %14.6f\n",
                  name.c_str(), row.count, row.total_s * 1e3, row.self_s * 1e3,
                  row.total_s * 1e3 / static_cast<double>(row.count));
    out << buffer;
  }
  if (!out) throw std::runtime_error("cannot write self-time table " + path);
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::string name, std::uint64_t parent,
                       std::int64_t job, std::int64_t frame)
    : tracer_(tracer), start_(Clock::now()) {
  span_.name = std::move(name);
  span_.parent = parent;
  span_.job = job;
  span_.frame = frame;
  if (tracer_ != nullptr) span_.id = tracer_->next_id();
}

double ScopedSpan::close() {
  if (!open_) return seconds_;
  open_ = false;
  const Clock::time_point end = Clock::now();
  seconds_ = seconds_between(start_, end);
  if (tracer_ != nullptr) {
    span_.start_ns = tracer_->to_ns(start_);
    span_.end_ns = tracer_->to_ns(end);
    tracer_->record(std::move(span_));
  }
  return seconds_;
}

}  // namespace e2e
