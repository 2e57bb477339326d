// Job-oriented experiment orchestration: many experiments, one machine.
//
// Everything below core/ runs one experiment per call; a JobManager turns
// that into a service. Submitted jobs queue under admission control, run
// concurrently on disjoint slices of one shared machine-wide TaskPool, and
// report per-sample progress through run_experiment's recording hooks — the
// same code path whether the manager lives inside a one-shot `sops_run` batch
// invocation (one job slot, whole machine) or inside the `sopsd` daemon
// (several slots, jobs arriving over a socket).
//
// The three production-shaped concerns, and where they live:
//
//  - Thread budgeting: the jobs × samples × steps split. The manager owns
//    one TaskPool sized so that every job slot's share
//    (sim::resolve_job_threads) is a disjoint support::Executor view; a
//    job runs entirely inside its slot's view and the view returns to the
//    slot when the job finishes. No job can starve another of workers, and
//    within the job the familiar samples × steps resolution applies
//    unchanged — the budget is still split exactly once per job.
//
//  - Admission control: a job's recording is its memory. The projected
//    F·m·n payload is computed at submit; jobs whose backing would stay
//    resident (heap mode, or auto below its spill threshold) count against
//    JobLimits::memory_budget_bytes. A job that alone exceeds the budget
//    is rejected at submit with a named reason (spill to `frame_storage =
//    mapped` and it projects to ~zero resident); otherwise it queues until
//    the running jobs' resident total leaves room and a job slot is free.
//
//  - Cancellation: each job carries a support::CancelToken chained to the
//    manager's shutdown token. cancel() raises the job's token; the
//    per-step, per-sample and per-frame (analysis) poll points unwind the
//    job via sops::CancelledError, RAII reclaims spill files and returns
//    the pool slice, and a durable shard's manifest stays valid (exactly
//    the synced samples are marked). Raising shutdown_token() — signal-
//    handler-safe — cancels everything at once, which is how sops_run and
//    sopsd translate SIGINT/SIGTERM into a clean drain.
//
// Scheduling only, by construction: a job's recording and analysis are the
// same run_experiment / analyze_self_organization calls batch mode makes,
// both on the job's slot share and on the same deterministic (seed, stream)
// grid — results are bitwise-identical to a solo batch run of the same
// config, whatever else ran alongside.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/analyzer.hpp"
#include "core/config_builder.hpp"
#include "io/csv.hpp"
#include "support/cancel.hpp"
#include "support/executor.hpp"

namespace sops::core {

/// Lifecycle of a submitted job. Terminal states: kDone, kFailed,
/// kCancelled.
enum class JobState {
  kQueued,     ///< submitted, waiting for a slot and admission headroom
  kAdmitted,   ///< claimed by a job slot, about to start
  kRunning,    ///< samples simulating (and streaming out as they finish)
  kStreaming,  ///< simulation done; analysis running
  kDone,       ///< finished; outcome available via wait()
  kFailed,     ///< failed; wait() rethrows the named error
  kCancelled,  ///< cancelled; wait() throws sops::CancelledError
};

[[nodiscard]] const char* to_string(JobState state) noexcept;
[[nodiscard]] inline bool is_terminal(JobState state) noexcept {
  return state == JobState::kDone || state == JobState::kFailed ||
         state == JobState::kCancelled;
}

/// Machine-wide resource limits, fixed at construction.
struct JobLimits {
  /// Total thread budget shared by all concurrent jobs (0 = hardware
  /// concurrency). Split across job slots by sim::resolve_job_threads.
  std::size_t machine_threads = 0;
  /// How many jobs may run concurrently. Each slot owns a fixed disjoint
  /// slice of the pool for its lifetime, so admission never re-partitions
  /// running jobs.
  std::size_t job_slots = 2;
  /// Admission budget for *resident* recording footprints (heap-backed
  /// jobs; mapped/shard recordings project to ~zero). Default: unlimited.
  /// `sopsd` keeps the default unless started with `--mem-mb`.
  std::size_t memory_budget_bytes = static_cast<std::size_t>(-1);
};

/// What to compute after a job's samples record.
enum class JobAnalysis {
  kNone,     ///< record only (sharded runs, merge inputs)
  kPostHoc,  ///< analyze_self_organization on the slot's share
};

/// Point-in-time view of a job, safe to copy out of the manager.
struct JobStatus {
  std::uint64_t id = 0;
  JobState state = JobState::kQueued;
  std::size_t samples_done = 0;    ///< includes resumed shard samples
  std::size_t samples_total = 0;   ///< local slots (shards: the slice)
  std::size_t payload_bytes = 0;   ///< projected F·m·n recording payload
  std::size_t resident_bytes = 0;  ///< what admission charges (0 = spills)
  std::string error;        ///< terminal kFailed/kCancelled reason
  std::string flush_error;  ///< first spill I/O error, live during the run
  bool analyzed = false;    ///< analysis finished (delta_mi is meaningful)
  double delta_mi = 0.0;    ///< headline ΔI once analyzed
};

/// One finished sample, announced from the sample workers (thread-safe
/// handlers required). `series` points at the live recording: the sample's
/// slots are final (flushed/synced), valid for the duration of the call.
struct JobSampleEvent {
  std::uint64_t job = 0;
  std::size_t local_sample = 0;
  std::size_t samples_done = 0;
  std::size_t samples_total = 0;
  std::optional<std::size_t> equilibrium_step;
  const EnsembleSeries* series = nullptr;
};

/// Optional per-job event hooks. Called outside the manager's lock, from
/// scheduler or sample-worker threads — handlers must be thread-safe and
/// must not call back into the manager's blocking APIs (wait). The manager
/// destroys a job's hooks right after its terminal on_state_change, so
/// whatever they capture lives no longer than the job.
struct JobEvents {
  std::function<void(const JobStatus&)> on_state_change;
  std::function<void(const JobSampleEvent&)> on_sample_done;
};

/// Per-submission options.
struct JobOptions {
  JobAnalysis analysis = JobAnalysis::kPostHoc;
  JobEvents events;
};

/// What wait() hands back for a completed job.
struct JobOutcome {
  EnsembleSeries series;
  std::optional<AnalysisResult> analysis;
};

/// The orchestration layer (see file comment). Thread-safe; one instance
/// per process or daemon.
class JobManager {
 public:
  explicit JobManager(JobLimits limits = {});
  /// Cancels every queued and running job, drains the slots, joins.
  ~JobManager();

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  [[nodiscard]] const JobLimits& limits() const noexcept { return limits_; }

  /// Admission-checks and enqueues a job. Throws sops::Error when the job
  /// can never be admitted (resident footprint above the memory budget) or
  /// its analysis can never run (fewer than ksg.k + 1 local samples, or
  /// fewer than two particles; record-only jobs are exempt); otherwise
  /// returns its id and the scheduler picks it up as soon as a slot and the
  /// budget allow.
  std::uint64_t submit(ConfiguredExperiment configured, JobOptions options = {});

  /// Requests cancellation: a queued job terminates immediately, a running
  /// one drains at its next poll point (a step boundary). Returns false if
  /// the id is unknown or the job already reached a terminal state.
  bool cancel(std::uint64_t id);

  /// Snapshot of one job / of every job (ascending id). Throws on an
  /// unknown id.
  [[nodiscard]] JobStatus status(std::uint64_t id) const;
  [[nodiscard]] std::vector<JobStatus> statuses() const;

  /// Blocks until the job is terminal and its terminal event delivered,
  /// then returns its outcome (kDone) or throws — the job's named Error
  /// (kFailed) or sops::CancelledError (kCancelled). The outcome is handed
  /// out once; a second wait() on the same done job throws.
  JobOutcome wait(std::uint64_t id);

  /// The manager-wide cancellation root every job token chains to.
  /// request() is async-signal-safe — the SIGINT/SIGTERM handlers of
  /// sops_run and sopsd raise exactly this.
  [[nodiscard]] support::CancelToken& shutdown_token() noexcept {
    return shutdown_;
  }

  /// Projected recording payload of a config: F·m·n·sizeof(Vec2) over the
  /// job's local sample slots.
  [[nodiscard]] static std::size_t projected_payload_bytes(
      const ExperimentConfig& config);
  /// The slice of that payload that stays resident — what admission
  /// charges. Zero for shard-backed and mapped recordings, and for kAuto
  /// configs big enough to spill.
  [[nodiscard]] static std::size_t projected_resident_bytes(
      const ExperimentConfig& config);

 private:
  struct Job;

  void drive(std::size_t slot);
  void run_job(Job& job, std::size_t slot);
  void set_state(Job& job, JobState state);
  void note_sample(Job& job, std::size_t local_sample,
                   const EnsembleSeries& series);
  [[nodiscard]] JobStatus snapshot_locked(const Job& job) const;
  Job* find_locked(std::uint64_t id) noexcept;
  const Job* find_locked(std::uint64_t id) const noexcept;

  JobLimits limits_;
  support::CancelToken shutdown_;

  // The shared machine-wide pool and each slot's fixed view of it.
  std::unique_ptr<support::TaskPool> pool_;
  std::vector<support::Executor> slices_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;  // state changes, admissions, shutdown
  std::vector<std::unique_ptr<Job>> jobs_;  // append-only, ascending id
  std::vector<std::uint64_t> queue_;        // FIFO of queued ids
  std::size_t resident_bytes_ = 0;          // running jobs' charged total
  std::uint64_t next_id_ = 1;
  bool shutting_down_ = false;

  std::vector<std::thread> drivers_;  // one per job slot
};

/// CSV text of one recorded sample — header plus one row per
/// (frame, particle), max-precision positions. The daemon streams exactly
/// this per finished sample, and the parity tests serialize a batch run's
/// series through the same function, so "streamed recording == batch
/// recording" is a byte comparison.
[[nodiscard]] std::string sample_recording_csv(const EnsembleSeries& series,
                                               std::size_t local_sample);

/// The analysis-curve table `sops_run` writes as its CSV output — shared
/// with the daemon's curve streaming so both serialize identical bytes.
[[nodiscard]] io::CsvTable analysis_csv_table(const AnalysisResult& result,
                                              bool with_entropies);

/// One JobStatus as a single-line JSON object (the wire form of the
/// daemon's status report and per-job events).
[[nodiscard]] std::string job_status_json(const JobStatus& status);

}  // namespace sops::core
