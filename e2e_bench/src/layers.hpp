// The library-facing half of the benchmark: running a job through
// core::JobManager with its lifecycle timed, and the traced run that
// recomposes a job from each layer's public calls.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/job_manager.hpp"
#include "trace.hpp"

namespace e2e {

/// One job submitted to a JobManager and waited on, as `sops_run` does.
struct TimedJob {
  sops::core::JobOutcome outcome;
  bool ok = false;
  std::string error;
  double wall_s = 0.0;          ///< submit → outcome
  double submit_s = 0.0;        ///< submit() call → return
  /// running → first finished sample of each sample worker
  std::vector<double> first_sample_s;
  double queued_s = 0.0;        ///< submit → admitted
  double run_s = 0.0;           ///< running → simulation finished
  double tail_s = 0.0;          ///< simulation finished → outcome
};

[[nodiscard]] TimedJob run_timed_job(
    sops::core::JobManager& manager,
    const sops::core::ConfiguredExperiment& configured,
    sops::core::JobAnalysis analysis);

[[nodiscard]] bool same_recording(const sops::core::EnsembleSeries& a,
                                  const sops::core::EnsembleSeries& b);

/// The traced run of one job config. Spans wrap the benchmark's own calls:
/// run_experiment, then per frame align_ensemble → [coarse_grain_ensemble]
/// → FrameNeighborCache → multi_information_ksg on the analyzer's frame ×
/// estimator split. The result is checked bitwise against `reference`, the
/// untraced JobManager job of the same config. Then it probes the layers
/// this job does not reach (marked as such in the span tree), re-runs
/// sample 0 step by step at 1 and `threads` threads, times an empty pool
/// dispatch, and serializes recorded samples. Emits every per-layer metric
/// except the service.* ones and trace.overhead_frac; returns the traced
/// job's wall time.
double trace_layers(const sops::core::ConfiguredExperiment& configured,
                    sops::core::JobAnalysis analysis,
                    const sops::core::JobOutcome& reference,
                    std::size_t threads, std::int64_t job, Tracer& tracer,
                    Report& report);

/// Writes the span file and the self-time table under options.out_dir.
void write_trace(const Tracer& tracer, const Options& options, Report& report);

}  // namespace e2e
