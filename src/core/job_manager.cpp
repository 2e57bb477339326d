#include "core/job_manager.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <span>
#include <utility>

#include "sim/parallel_policy.hpp"
#include "support/error.hpp"

namespace sops::core {
namespace {

/// Local sample-slot count of a config: the shard's slice when sharding is
/// on, the whole ensemble otherwise — mirrors run_experiment's slot math.
std::size_t local_samples(const ExperimentConfig& config) {
  if (config.shard.path.empty()) return config.samples;
  const support::ChunkRange slots = support::chunk_range(
      config.shard.index, config.samples, config.shard.count);
  return slots.end - slots.begin;
}

void append_json_string(std::string& out, const std::string& value) {
  out += '"';
  for (const char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

// The `%zu` / `%.17g` text of a value: std::to_chars with a precision is
// specified as printf's conversion, byte for byte, without the format
// parsing and locale lookup. Fields go through a stack buffer and are
// appended, rather than written in place through the returned end pointer.
void append_chars(std::string& out, std::size_t value) {
  char buffer[20];  // SIZE_MAX has 20 digits
  const std::to_chars_result result =
      std::to_chars(buffer, buffer + sizeof buffer, value);
  out.append(buffer, result.ptr);
}

void append_chars(std::string& out, double value) {
  char buffer[32];  // "-d.<16 digits>e-308" is 24
  const std::to_chars_result result = std::to_chars(
      buffer, buffer + sizeof buffer, value, std::chars_format::general, 17);
  out.append(buffer, result.ptr);
}

}  // namespace

const char* to_string(JobState state) noexcept {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kAdmitted: return "admitted";
    case JobState::kRunning: return "running";
    case JobState::kStreaming: return "streaming";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "unknown";
}

/// Everything the manager tracks per job. Entries are append-only and live
/// until the manager is destroyed, so driver and sample-worker threads may
/// hold plain pointers across unlocked sections.
struct JobManager::Job {
  Job(std::uint64_t id_, ConfiguredExperiment configured_, JobOptions options_,
      const support::CancelToken* root)
      : id(id_),
        analysis(options_.analysis),
        token(root),
        configured(std::move(configured_)),
        events(std::make_shared<const JobEvents>(std::move(options_.events))) {}

  const std::uint64_t id;
  const JobAnalysis analysis;
  support::CancelToken token;  // chained to the manager's shutdown root

  // Guarded by JobManager::mutex_. The config and the hooks (with whatever
  // they capture) are released once the job is terminal (set_state). Hooks
  // are called through a copied pointer, outside the lock.
  std::optional<ConfiguredExperiment> configured;
  std::shared_ptr<const JobEvents> events;
  bool settled = false;  // terminal, its terminal event delivered, released
  JobState state = JobState::kQueued;
  std::size_t samples_done = 0;
  std::size_t samples_total = 0;
  std::size_t payload_bytes = 0;
  std::size_t resident_bytes = 0;
  bool resident_charged = false;
  std::string error;
  std::string flush_error;
  bool analyzed = false;
  double delta_mi = 0.0;
  bool outcome_taken = false;
  std::optional<JobOutcome> outcome;
};

JobManager::JobManager(JobLimits limits) : limits_(limits) {
  if (limits_.machine_threads == 0) {
    limits_.machine_threads = support::default_thread_count();
  }
  if (limits_.job_slots == 0) limits_.job_slots = 1;

  // Carve the machine budget once: slot j's share is resolve_job_threads,
  // of which one runner is the slot's driver thread — so the pool only
  // needs the shares' worker remainders, and the slices are disjoint by
  // the same prefix-sum arithmetic run_partitioned uses inside a job.
  std::vector<std::size_t> shares(limits_.job_slots);
  std::size_t workers_total = 0;
  for (std::size_t j = 0; j < limits_.job_slots; ++j) {
    shares[j] = sim::resolve_job_threads(j, limits_.job_slots,
                                         limits_.machine_threads);
    workers_total += shares[j] - 1;
  }
  pool_ = std::make_unique<support::TaskPool>(workers_total + 1);
  slices_.reserve(limits_.job_slots);
  std::size_t first = 0;
  for (std::size_t j = 0; j < limits_.job_slots; ++j) {
    slices_.push_back(pool_->executor().lend(first, shares[j] - 1));
    first += shares[j] - 1;
  }

  drivers_.reserve(limits_.job_slots);
  for (std::size_t j = 0; j < limits_.job_slots; ++j) {
    drivers_.emplace_back([this, j] { drive(j); });
  }
}

JobManager::~JobManager() {
  shutdown_.request();
  std::vector<Job*> queued;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
    for (const std::uint64_t id : queue_) {
      Job* job = find_locked(id);
      if (job != nullptr) {
        job->error = "job cancelled: manager shutting down";
        queued.push_back(job);
      }
    }
    queue_.clear();
  }
  for (Job* job : queued) set_state(*job, JobState::kCancelled);
  cv_.notify_all();
  for (std::thread& driver : drivers_) driver.join();
  // pool_ outlives the joined drivers (member order), so no slice is ever
  // dangling while a job could still dispatch on it.
}

std::uint64_t JobManager::submit(ConfiguredExperiment configured,
                                 JobOptions options) {
  if (options.analysis != JobAnalysis::kNone) {
    // analyze_self_organization's own preconditions, checked before any
    // sample simulates rather than after the whole recording.
    const std::size_t samples = local_samples(configured.experiment);
    const std::size_t k = configured.analysis.ksg.k;
    if (samples < k + 1) {
      throw Error("JobManager::submit: analysis needs more samples than the "
                  "estimator's k = " + std::to_string(k) + ", the job records " +
                  std::to_string(samples));
    }
    if (configured.experiment.simulation.types.size() < 2) {
      throw Error("JobManager::submit: analysis needs at least two particles");
    }
  }
  const std::size_t payload = projected_payload_bytes(configured.experiment);
  const std::size_t resident = projected_resident_bytes(configured.experiment);
  if (resident > limits_.memory_budget_bytes) {
    throw Error("JobManager::submit: projected resident recording of " +
                std::to_string(resident) + " bytes exceeds the memory budget (" +
                std::to_string(limits_.memory_budget_bytes) +
                " bytes); spill it with frame_storage = mapped");
  }

  Job* job = nullptr;
  JobStatus snapshot;
  std::shared_ptr<const JobEvents> events;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (shutting_down_) {
      throw Error("JobManager::submit: manager is shutting down");
    }
    auto owned = std::make_unique<Job>(next_id_++, std::move(configured),
                                       std::move(options), &shutdown_);
    job = owned.get();
    job->samples_total = local_samples(job->configured->experiment);
    job->payload_bytes = payload;
    job->resident_bytes = resident;
    queue_.push_back(job->id);
    jobs_.push_back(std::move(owned));
    snapshot = snapshot_locked(*job);
    events = job->events;
  }
  cv_.notify_all();
  if (events->on_state_change) events->on_state_change(snapshot);
  return snapshot.id;
}

bool JobManager::cancel(std::uint64_t id) {
  Job* job = nullptr;
  bool was_queued = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    job = find_locked(id);
    if (job == nullptr || is_terminal(job->state)) return false;
    // Only the call that takes the job off the queue settles it: a second
    // cancel racing the first must not record a second terminal state.
    const auto queued = std::find(queue_.begin(), queue_.end(), id);
    if (queued != queue_.end()) {
      queue_.erase(queued);
      job->error = "job cancelled while queued";
      was_queued = true;
    }
    job->token.request();
  }
  // A queued job has no driver to transition it; a running one drains at
  // its next poll point and its driver records the terminal state.
  if (was_queued) set_state(*job, JobState::kCancelled);
  return true;
}

JobStatus JobManager::status(std::uint64_t id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const Job* job = find_locked(id);
  if (job == nullptr) {
    throw Error("JobManager::status: unknown job id " + std::to_string(id));
  }
  return snapshot_locked(*job);
}

std::vector<JobStatus> JobManager::statuses() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<JobStatus> out;
  out.reserve(jobs_.size());
  for (const auto& job : jobs_) out.push_back(snapshot_locked(*job));
  return out;
}

JobOutcome JobManager::wait(std::uint64_t id) {
  std::unique_lock<std::mutex> lock(mutex_);
  Job* job = find_locked(id);
  if (job == nullptr) {
    throw Error("JobManager::wait: unknown job id " + std::to_string(id));
  }
  cv_.wait(lock, [&] { return job->settled; });
  if (job->state == JobState::kCancelled) {
    throw CancelledError(job->error.empty() ? "job cancelled" : job->error);
  }
  if (job->state == JobState::kFailed) throw Error(job->error);
  if (job->outcome_taken || !job->outcome.has_value()) {
    throw Error("JobManager::wait: outcome of job " + std::to_string(id) +
                " was already taken");
  }
  job->outcome_taken = true;
  JobOutcome outcome = std::move(*job->outcome);
  job->outcome.reset();
  return outcome;
}

std::size_t JobManager::projected_payload_bytes(const ExperimentConfig& config) {
  const std::size_t frames =
      sim::recording_steps(config.simulation.steps,
                           config.simulation.record_stride)
          .size();
  return frames * local_samples(config) * config.simulation.types.size() *
         sizeof(geom::Vec2);
}

std::size_t JobManager::projected_resident_bytes(
    const ExperimentConfig& config) {
  // Shard recordings are always mapped to their durable file; a mapped (or
  // auto-spilling) scratch store drops finished extents from the resident
  // set as it goes. Only a heap-resident recording holds its payload in
  // RAM for the whole run.
  if (!config.shard.path.empty()) return 0;
  const std::size_t payload = projected_payload_bytes(config);
  switch (config.storage.mode) {
    case StorageMode::kMapped: return 0;
    case StorageMode::kAuto:
      return payload >= config.storage.auto_spill_bytes ? 0 : payload;
    case StorageMode::kHeap: break;
  }
  return payload;
}

void JobManager::drive(std::size_t slot) {
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      for (;;) {
        // FIFO-with-skip admission: the oldest queued job whose resident
        // charge fits under the budget next to everything already running.
        for (std::size_t i = 0; i < queue_.size(); ++i) {
          Job* candidate = find_locked(queue_[i]);
          if (candidate == nullptr) continue;
          if (resident_bytes_ + candidate->resident_bytes <=
              limits_.memory_budget_bytes) {
            queue_.erase(queue_.begin() +
                         static_cast<std::ptrdiff_t>(i));
            job = candidate;
            break;
          }
        }
        if (job != nullptr) break;
        if (shutting_down_) return;
        // wait_for, not wait: a signal handler raising the shutdown token
        // cannot notify a condition variable, so drivers poll.
        cv_.wait_for(lock, std::chrono::milliseconds(100));
      }
      job->state = JobState::kAdmitted;
      job->resident_charged = true;
      resident_bytes_ += job->resident_bytes;
    }
    cv_.notify_all();
    {
      JobStatus snapshot;
      std::shared_ptr<const JobEvents> events;
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        snapshot = snapshot_locked(*job);
        events = job->events;
      }
      if (events->on_state_change) events->on_state_change(snapshot);
    }
    run_job(*job, slot);
  }
}

void JobManager::run_job(Job& job, std::size_t slot) {
  set_state(job, JobState::kRunning);

  // Only this thread reads the config, unlocked, until the terminal
  // set_state below releases it.
  const ConfiguredExperiment& configured = *job.configured;
  ExperimentConfig config = configured.experiment;
  config.on_recording_started = [&](const EnsembleSeries& series) {
    // Resumed shard samples never announce themselves; count them up front
    // so progress reflects the whole slot range.
    if (series.resumed_samples == 0) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    job.samples_done = series.resumed_samples;
  };
  config.on_sample_recorded = [&](const EnsembleSeries& series,
                                  std::size_t local_sample) {
    note_sample(job, local_sample, series);
  };
  config.cancel = &job.token;
  config.pool = &slices_[slot];

  try {
    JobOutcome outcome;
    outcome.series = run_experiment(config);
    const std::string flush_error = outcome.series.frames.flush_error();
    if (!flush_error.empty()) {
      // A failed spill flush means the recording on disk is not what the
      // run computed — that is a failed job, not a successful one with a
      // warning buried in a log line.
      throw Error("job " + std::to_string(job.id) +
                  ": recording flush failed: " + flush_error);
    }
    if (job.analysis == JobAnalysis::kPostHoc) {
      set_state(job, JobState::kStreaming);
      // The analysis pool gets the slot's share, like the simulation: left
      // at 0, every job would spawn a pool as wide as the machine.
      AnalysisOptions analysis = configured.analysis;
      analysis.threads = slices_[slot].width();
      outcome.analysis =
          analyze_self_organization(outcome.series, analysis, &job.token);
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (outcome.analysis.has_value()) {
        job.analyzed = true;
        job.delta_mi = outcome.analysis->delta_mi();
      }
      job.outcome.emplace(std::move(outcome));
    }
    set_state(job, JobState::kDone);
  } catch (const CancelledError& cancelled) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      job.error = cancelled.what();
    }
    set_state(job, JobState::kCancelled);
  } catch (const std::exception& failure) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      job.error = failure.what();
    }
    set_state(job, JobState::kFailed);
  }
}

void JobManager::set_state(Job& job, JobState state) {
  const bool terminal = is_terminal(state);
  JobStatus snapshot;
  std::shared_ptr<const JobEvents> events;
  std::optional<ConfiguredExperiment> configured;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    job.state = state;
    if (terminal && job.resident_charged) {
      resident_bytes_ -= job.resident_bytes;
      job.resident_charged = false;
    }
    snapshot = snapshot_locked(job);
    if (terminal) {
      // This is the job's last event: take its hooks and config away, so a
      // finished job keeps only its status fields.
      events.swap(job.events);
      configured.swap(job.configured);
    } else {
      events = job.events;
    }
  }
  cv_.notify_all();
  if (events->on_state_change) events->on_state_change(snapshot);
  if (!terminal) return;

  // Destroy them here, outside the lock (the hooks' captures run their
  // destructors), before wait() may return.
  events.reset();
  configured.reset();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    job.settled = true;
  }
  cv_.notify_all();
}

void JobManager::note_sample(Job& job, std::size_t local_sample,
                             const EnsembleSeries& series) {
  JobSampleEvent event;
  std::shared_ptr<const JobEvents> events;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++job.samples_done;
    const std::string flush_error = series.frames.flush_error();
    if (!flush_error.empty()) job.flush_error = flush_error;
    event.job = job.id;
    event.local_sample = local_sample;
    event.samples_done = job.samples_done;
    event.samples_total = job.samples_total;
    event.equilibrium_step = series.equilibrium_steps[local_sample];
    event.series = &series;
    events = job.events;
  }
  if (events->on_sample_done) events->on_sample_done(event);
}

JobStatus JobManager::snapshot_locked(const Job& job) const {
  JobStatus status;
  status.id = job.id;
  status.state = job.state;
  status.samples_done = job.samples_done;
  status.samples_total = job.samples_total;
  status.payload_bytes = job.payload_bytes;
  status.resident_bytes = job.resident_bytes;
  status.error = job.error;
  status.flush_error = job.flush_error;
  status.analyzed = job.analyzed;
  status.delta_mi = job.delta_mi;
  return status;
}

JobManager::Job* JobManager::find_locked(std::uint64_t id) noexcept {
  // Ids are assigned 1, 2, … in submission order, so the append-only list
  // is indexable directly.
  if (id == 0 || id > jobs_.size()) return nullptr;
  return jobs_[id - 1].get();
}

const JobManager::Job* JobManager::find_locked(std::uint64_t id) const noexcept {
  if (id == 0 || id > jobs_.size()) return nullptr;
  return jobs_[id - 1].get();
}

std::string sample_recording_csv(const EnsembleSeries& series,
                                 std::size_t local_sample) {
  support::expect(local_sample < series.sample_count(),
                  "sample_recording_csv: sample out of range");
  std::string out = "frame,step,particle,x,y\n";
  // A typical row is ~50 bytes; the bound is 3 × 20 + 2 × 24 + 5.
  out.reserve(out.size() +
              series.frame_count() * series.particle_count() * 64);
  for (std::size_t f = 0; f < series.frame_count(); ++f) {
    const std::span<const geom::Vec2> positions =
        series.frames.sample(f, local_sample);
    for (std::size_t p = 0; p < positions.size(); ++p) {
      append_chars(out, f);
      out += ',';
      append_chars(out, series.frame_steps[f]);
      out += ',';
      append_chars(out, p);
      out += ',';
      append_chars(out, positions[p].x);
      out += ',';
      append_chars(out, positions[p].y);
      out += '\n';
    }
  }
  return out;
}

io::CsvTable analysis_csv_table(const AnalysisResult& result,
                                bool with_entropies) {
  io::CsvTable table;
  table.header = {"t", "multi_information_bits"};
  if (with_entropies) {
    table.header.push_back("joint_entropy_bits");
    table.header.push_back("marginal_entropy_sum_bits");
  }
  for (const TimePoint& point : result.points) {
    std::vector<double> row{static_cast<double>(point.step),
                            point.multi_information};
    if (with_entropies) {
      row.push_back(point.joint_entropy);
      row.push_back(point.marginal_entropy_sum);
    }
    table.add_row(std::move(row));
  }
  return table;
}

std::string job_status_json(const JobStatus& status) {
  char buffer[256];
  std::string out = "{\"id\":";
  out += std::to_string(status.id);
  out += ",\"state\":\"";
  out += to_string(status.state);
  out += "\",\"samples_done\":";
  out += std::to_string(status.samples_done);
  out += ",\"samples_total\":";
  out += std::to_string(status.samples_total);
  out += ",\"payload_bytes\":";
  out += std::to_string(status.payload_bytes);
  out += ",\"resident_bytes\":";
  out += std::to_string(status.resident_bytes);
  out += ",\"analyzed\":";
  out += status.analyzed ? "true" : "false";
  if (status.analyzed) {
    std::snprintf(buffer, sizeof buffer, ",\"delta_mi_bits\":%.17g",
                  status.delta_mi);
    out += buffer;
  }
  out += ",\"error\":";
  append_json_string(out, status.error);
  out += ",\"flush_error\":";
  append_json_string(out, status.flush_error);
  out += "}";
  return out;
}

}  // namespace sops::core
