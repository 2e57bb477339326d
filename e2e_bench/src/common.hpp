// Shared plumbing of the end-to-end benchmark: options, workload configs,
// statistics, process memory readings, and the run report that prints the
// result line.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace sops::support {
class CancelToken;
}  // namespace sops::support

namespace e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from,
                                            Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point from) {
  return seconds_between(from, Clock::now());
}

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;          ///< seconds-long self-test sizes
  std::size_t threads = 1;    ///< nproc: the machine budget of every job
  std::string sopsd;          ///< path of the sopsd binary
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

/// Trace files and sopsd's private socket/spill directories, relative to
/// the working directory (the checkout root).
inline constexpr const char* kOutDir = ".bench_out";

inline constexpr const char* kFig4 = "fig4_m500";
inline constexpr const char* kCoarse = "coarse_n512";
inline constexpr const char* kCollective = "collective_16k";
inline constexpr const char* kService = "sopsd_closed3";

[[nodiscard]] bool is_workload(const std::string& name);

/// Seed of the run's job `index`: every job of a run gets its own, all
/// derived from --seed, so a run's median averages over inputs as well as
/// over repeats.
[[nodiscard]] inline std::uint64_t job_seed(std::uint64_t seed,
                                            std::size_t index) {
  return seed * 1000 + index;
}

/// The config text a workload's job submits; the program sees nothing else.
[[nodiscard]] std::string workload_config(const std::string& workload,
                                          std::uint64_t job_seed, bool tiny);

/// Median and linearly interpolated quantile (q in [0, 1]) of a sample.
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double quantile(std::vector<double> values, double q);
/// Whether one more unit of work (a job, a round) is expected to end within
/// `budget` seconds, judging by the mean of the units timed so far — so a
/// run measures for about --seconds instead of overrunning by a unit.
[[nodiscard]] bool fits_another(double elapsed, const std::vector<double>& done,
                                double budget);
/// "<n> <what>, min <x> max <y>" — the sample behind a timing.
[[nodiscard]] std::string sample_note(const std::vector<double>& values,
                                      const std::string& what);

/// A `Vm*` field of /proc/<pid>/status in MiB (pid 0 = this process);
/// negative when unreadable.
[[nodiscard]] double proc_status_mib(pid_t pid, const char* field);

/// Keeps `threads` cores busy for `seconds` before anything is timed. On a
/// virtual machine an idle vCPU wakes slowly, and the first second of
/// parallel work after an idle spell otherwise runs up to 2x slower.
void warm_up(std::size_t threads, double seconds);

/// Host fingerprint as one JSON object (nproc, CPU model, compiler, SIMD ISA,
/// build type, commit, source digest).
[[nodiscard]] std::string host_json(const Options& options);

/// Ctrl-C / SIGTERM: the handler raises this flag, SIGTERMs a running sopsd
/// and cancels the in-flight batch job; the workload loops then unwind
/// through their RAII cleanup.
extern std::atomic<bool> g_interrupted;
extern std::atomic<pid_t> g_daemon_pid;
extern std::atomic<sops::support::CancelToken*> g_cancel_token;
void install_signal_handlers();

struct Interrupted {};
inline void throw_if_interrupted() {
  if (g_interrupted.load()) throw Interrupted{};
}

/// Everything one run reports: attempted/failed work and the metrics.
class Report {
 public:
  /// One attempted job (submitted to a JobManager or to sopsd).
  void job(bool ok, const std::string& what);
  /// One correctness check; a failed check counts like a failed job.
  void check(bool ok, const std::string& what);
  /// Sets (or replaces) a metric. `note` says how it was measured, e.g.
  /// the sample count of a timing.
  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = "");
  /// A figure printed on its own line but kept out of the JSON result
  /// because it is too noisy to carry a bound (see README.md).
  void info(const std::string& name, double value, const std::string& unit,
            const std::string& note = "");

  /// True when `name` was reported, finite, in `unit`.
  [[nodiscard]] bool reports(const std::string& name,
                             const std::string& unit) const;
  [[nodiscard]] std::vector<std::string> metric_names() const;
  [[nodiscard]] bool correct() const { return failed_ == 0 && attempted_ > 0; }

  /// Human-readable lines, then the one-line JSON result (last line).
  void print(std::ostream& out) const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
    std::string note;
  };
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::size_t jobs_ = 0;
  std::size_t failed_jobs_ = 0;
  std::vector<std::string> failures_;
  std::map<std::string, Metric> metrics_;
  std::map<std::string, Metric> infos_;
};

/// Metric names (with units) a run must print: the end-to-end set for
/// trace 0, the per-layer set for trace 1. Kept in step with BENCHMARK.json.
struct MetricSpec {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

}  // namespace e2e
