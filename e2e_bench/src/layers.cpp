#include "layers.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>

#include "core/sops.hpp"

namespace e2e {
namespace {

using namespace sops;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double ns_between(std::int64_t from, std::int64_t to) {
  return static_cast<double>(to - from) * 1e-9;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// analyze_self_organization recomposed from its public layer calls, with a
/// span around each: the same kHybrid frame × estimator split of one pool,
/// and per frame the sequence core::analyze_frame runs. The FrameNeighborCache
/// span resolves the per-block marginal trees KSG would otherwise build at
/// its entry. Returns I per frame and sets `dims` to the sample-matrix
/// width; `aligned` (if set) keeps each frame's shape-space ensemble for the
/// off-path coarse-graining probe.
std::vector<double> traced_analysis(const std::vector<geom::FrameView>& frames,
                                    const std::vector<sim::TypeId>& types,
                                    bool coarse,
                                    const core::AnalysisOptions& options,
                                    std::size_t threads, Tracer& tracer,
                                    std::uint64_t parent, std::int64_t job,
                                    std::size_t& dims,
                                    std::vector<align::AlignedEnsemble>* aligned) {
  const std::size_t frame_count = frames.size();
  const sim::ThreadBudget split = sim::resolve_parallel_policy(
      sim::ParallelPolicy::kHybrid, types.size(), frame_count, threads);
  support::TaskPool pool(split.sample_threads * split.step_threads);
  std::vector<double> mi(frame_count, 0.0);
  if (aligned != nullptr) aligned->resize(frame_count);

  pool.run_partitioned(
      split.sample_threads, split.step_threads,
      [&](std::size_t k, support::Executor& inner) {
        const support::ChunkRange chunk =
            support::chunk_range(k, frame_count, split.sample_threads);
        for (std::size_t f = chunk.begin; f < chunk.end; ++f) {
          const auto frame = static_cast<std::int64_t>(f);
          align::EnsembleOptions ensemble = options.ensemble;
          ensemble.threads = 1;
          ensemble.executor = &inner;
          info::KsgOptions ksg = options.ksg;
          ksg.threads = 1;
          ksg.executor = &inner;

          align::AlignedEnsemble shape;
          {
            ScopedSpan span(&tracer, "align", parent, job, frame);
            shape = align::align_ensemble(frames[f], types, ensemble);
          }
          if (coarse) {
            ScopedSpan span(&tracer, "cluster", parent, job, frame);
            rng::Xoshiro256 engine = rng::make_stream(
                options.kmeans_seed, static_cast<std::uint64_t>(f));
            shape = align::coarse_grain_ensemble(shape, options.kmeans_per_type,
                                                 engine);
          }
          {
            std::optional<info::FrameNeighborCache> cache;
            if (options.reuse_neighbor_cache &&
                ksg.search == info::NeighborSearch::kBlockedTree) {
              ScopedSpan span(&tracer, "info.cache", parent, job, frame);
              cache.emplace(shape.samples);
              for (const info::Block& block : shape.blocks) {
                (void)cache->tree_for({&block, 1});
              }
              ksg.cache = &*cache;
            }
            ScopedSpan span(&tracer, "info.ksg", parent, job, frame);
            mi[f] = info::multi_information_ksg(shape.samples, shape.blocks, ksg);
          }
          if (f == 0) dims = shape.samples.dim();
          if (aligned != nullptr) (*aligned)[f] = std::move(shape);
        }
      });
  return mi;
}

struct StepTimes {
  double rebuild_us = 0.0;
  double drift_us = 0.0;
  double residual_us = 0.0;
  double integrate_us = 0.0;
  double pairs_per_step = 0.0;
  bool matches = true;  ///< every recorded frame bitwise equal to sample 0
};

double mean_us(const std::vector<double>& seconds) {
  double sum = 0.0;
  for (const double s : seconds) sum += s;
  return seconds.empty() ? 0.0 : sum * 1e6 / static_cast<double>(seconds.size());
}

/// Sample 0 re-run through the calls run_simulation_streamed makes
/// (workspace prepare and the initial disc, then the step loop), with each
/// per-step call timed: the backend rebuild (as its own call on the step's
/// positions — the drift call rebuilds again, as it always does),
/// accumulate_drift, total_drift_norm and apply_euler_maruyama_update.
/// Pairs within r_c are counted at the recorded frames, outside the timed
/// calls.
StepTimes replay_sample0(const core::EnsembleSeries& recording,
                         const sim::SimulationConfig& base, std::size_t width,
                         Tracer& tracer, std::uint64_t parent, std::int64_t job) {
  sim::SimulationConfig config = base;
  config.stream = recording.slot_begin;
  config.threads = width;
  config.parallel_policy = sim::ParallelPolicy::kWithinStep;
  config.cancel = nullptr;

  sim::SimulationWorkspace workspace;
  workspace.prepare(config);
  rng::Xoshiro256& engine = workspace.engine();
  engine = rng::make_stream(config.seed, config.stream);
  sim::ParticleSystem system(
      sim::sample_initial_disc(config.types.size(), config.init_disc_radius,
                               engine),
      config.types);
  std::vector<geom::Vec2>& drift = workspace.drift();
  geom::NeighborBackend& backend = workspace.backend();
  support::Executor& executor = workspace.step_executor();
  const std::vector<std::size_t> grid =
      sim::recording_steps(config.steps, config.record_stride);

  StepTimes out;
  std::vector<double> rebuild, drift_s, residual_s, integrate_s;
  double pairs = 0.0;
  std::size_t next_frame = 0;
  for (std::size_t t = 0;; ++t) {
    const auto step = static_cast<std::int64_t>(t);
    const bool on_grid = next_frame < grid.size() && grid[next_frame] == t;
    {
      ScopedSpan span(&tracer, "geom.rebuild", parent, job, step);
      backend.rebuild(system.lanes(), config.cutoff_radius, executor);
      rebuild.push_back(span.close());
    }
    if (on_grid) {
      std::size_t listed = 0;
      for (std::size_t i = 0; i < system.size(); ++i) {
        listed += backend.neighbors(i).size();
      }
      pairs += static_cast<double>(listed) / 2.0;
    }
    {
      ScopedSpan span(&tracer, "sim.drift", parent, job, step);
      sim::accumulate_drift(system, workspace.scaling_table(),
                            config.cutoff_radius, drift, backend, executor);
      drift_s.push_back(span.close());
    }
    if (config.track_equilibrium || on_grid) {
      ScopedSpan span(&tracer, "sim.residual", parent, job, step);
      (void)sim::total_drift_norm(drift);
      residual_s.push_back(span.close());
    }
    if (on_grid) {
      const auto recorded = recording.frames.sample(next_frame, 0);
      for (std::size_t i = 0; i < system.size(); ++i) {
        out.matches = out.matches && same_bits(recorded[i].x, system.x[i]) &&
                      same_bits(recorded[i].y, system.y[i]);
      }
      ++next_frame;
    }
    if (t == config.steps) break;
    ScopedSpan span(&tracer, "sim.integrate", parent, job, step);
    sim::apply_euler_maruyama_update(system, drift, config.integrator, engine);
    integrate_s.push_back(span.close());
  }
  out.matches = out.matches && next_frame == recording.frame_count();
  out.rebuild_us = mean_us(rebuild);
  out.drift_us = mean_us(drift_s);
  out.residual_us = mean_us(residual_s);
  out.integrate_us = mean_us(integrate_s);
  out.pairs_per_step = pairs / static_cast<double>(std::max<std::size_t>(next_frame, 1));
  return out;
}

/// Median cost of one empty run_partitioned over a width-`threads` pool,
/// the fixed price every sharded step pays.
double dispatch_us(std::size_t threads) {
  support::TaskPool pool(threads);
  const auto empty = [](std::size_t, support::Executor&) {};
  for (int i = 0; i < 200; ++i) pool.run_partitioned(threads, 1, empty);
  std::vector<double> per_call;
  constexpr int kBatch = 200;
  for (int b = 0; b < 25; ++b) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kBatch; ++i) pool.run_partitioned(threads, 1, empty);
    per_call.push_back(seconds_since(t0) / kBatch);
  }
  return median(per_call) * 1e6;
}

constexpr double kMiB = 1024.0 * 1024.0;

}  // namespace

TimedJob run_timed_job(core::JobManager& manager,
                       const core::ConfiguredExperiment& configured,
                       core::JobAnalysis analysis) {
  // Each sample worker runs a contiguous chunk of samples in order, so the
  // first sample of chunk k is its first result. Timing every worker's
  // first sample, not just the job's, gives a run several observations per
  // job of a latency that is a few milliseconds long on fig4.
  const core::ExperimentConfig& experiment = configured.experiment;
  const std::size_t workers =
      sim::resolve_job_policy(experiment.parallel, experiment.simulation.types.size(),
                              experiment.samples, 0, manager.limits().job_slots,
                              manager.limits().machine_threads)
          .sample_threads;
  struct Stamps {
    explicit Stamps(std::size_t chunks) : chunk_first(chunks) {}
    std::atomic<std::int64_t> admitted{0}, running{0}, streaming{0}, done{0};
    std::vector<std::atomic<std::int64_t>> chunk_first;
    std::vector<std::size_t> chunk_begin;
  };
  const auto stamps = std::make_shared<Stamps>(workers);
  for (std::size_t k = 0; k < workers; ++k) {
    stamps->chunk_begin.push_back(
        support::chunk_range(k, experiment.samples, workers).begin);
  }
  core::JobOptions options;
  options.analysis = analysis;
  options.events.on_state_change = [stamps](const core::JobStatus& status) {
    const std::int64_t t = now_ns();
    switch (status.state) {
      case core::JobState::kQueued: break;
      case core::JobState::kAdmitted: stamps->admitted = t; break;
      case core::JobState::kRunning: stamps->running = t; break;
      case core::JobState::kStreaming: stamps->streaming = t; break;
      default: stamps->done = t; break;
    }
  };
  options.events.on_sample_done = [stamps](const core::JobSampleEvent& event) {
    const auto& begins = stamps->chunk_begin;
    const auto it = std::find(begins.begin(), begins.end(), event.local_sample);
    if (it != begins.end()) stamps->chunk_first[it - begins.begin()] = now_ns();
  };

  TimedJob job;
  g_cancel_token.store(&manager.shutdown_token());
  const std::int64_t start = now_ns();
  try {
    const std::uint64_t id = manager.submit(configured, options);
    job.submit_s = ns_between(start, now_ns());
    job.outcome = manager.wait(id);
    job.ok = true;
  } catch (const std::exception& error) {
    job.error = error.what();
  }
  const std::int64_t end = now_ns();
  g_cancel_token.store(nullptr);
  throw_if_interrupted();

  const std::int64_t sim_end =
      stamps->streaming != 0 ? stamps->streaming.load() : stamps->done.load();
  job.wall_s = ns_between(start, end);
  for (const auto& first : stamps->chunk_first) {
    job.first_sample_s.push_back(ns_between(stamps->running, first));
  }
  job.queued_s = ns_between(start, stamps->admitted);
  job.run_s = ns_between(stamps->running, sim_end);
  job.tail_s = ns_between(sim_end, end);
  return job;
}

bool same_recording(const core::EnsembleSeries& a, const core::EnsembleSeries& b) {
  if (a.frame_count() != b.frame_count() || a.sample_count() != b.sample_count() ||
      a.particle_count() != b.particle_count() || a.frame_steps != b.frame_steps) {
    return false;
  }
  const std::size_t frame_bytes =
      a.sample_count() * a.particle_count() * sizeof(geom::Vec2);
  for (std::size_t f = 0; f < a.frame_count(); ++f) {
    if (std::memcmp(a.frames[f].data(), b.frames[f].data(), frame_bytes) != 0) {
      return false;
    }
  }
  return true;
}

double trace_layers(const core::ConfiguredExperiment& configured,
                    core::JobAnalysis analysis,
                    const core::JobOutcome& reference, std::size_t threads,
                    std::int64_t job, Tracer& tracer, Report& report) {
  const core::ExperimentConfig& experiment = configured.experiment;
  const core::AnalysisOptions& options = configured.analysis;
  const std::size_t n = experiment.simulation.types.size();
  const bool coarse = n > options.coarse_grain_above;
  const bool analyzed = analysis != core::JobAnalysis::kNone;

  // The job itself, layer by layer.
  core::EnsembleSeries series;
  std::vector<align::AlignedEnsemble> aligned;
  std::vector<double> mi;
  std::size_t dims = 0;
  ScopedSpan job_span(&tracer, "job", 0, job);
  {
    ScopedSpan span(&tracer, "core.sim", job_span.id(), job);
    core::ExperimentConfig run = experiment;
    run.threads = threads;
    series = core::run_experiment(run);
  }
  if (analyzed) {
    ScopedSpan span(&tracer, "core.analysis", job_span.id(), job);
    std::vector<geom::FrameView> frames;
    for (std::size_t f = 0; f < series.frame_count(); ++f) {
      frames.push_back(series.frames[f]);
    }
    mi = traced_analysis(frames, series.types, coarse, options, threads, tracer,
                         span.id(), job, dims, coarse ? nullptr : &aligned);
  }
  const double traced_wall_s = job_span.close();

  report.check(same_recording(series, reference.series),
               "traced recording is bitwise equal to the job's recording");
  if (analyzed) {
    bool equal = reference.analysis.has_value() &&
                 reference.analysis->points.size() == mi.size();
    for (std::size_t f = 0; equal && f < mi.size(); ++f) {
      equal = same_bits(mi[f], reference.analysis->points[f].multi_information);
    }
    report.check(equal, "traced I(t) is bitwise equal to the job's AnalysisResult");
  }

  // Layers this job does not reach, probed on its own recording so every
  // per-layer metric exists on every workload. Their spans hang under
  // "probe", outside the job span, and move nothing end to end here.
  {
    ScopedSpan probe(&tracer, "probe", 0, job);
    if (!analyzed) {
      // A record-only single collective: its recorded frames, read as the
      // rows of one ensemble (the store is [frame][sample][particle] with
      // one sample, so the frames are contiguous rows).
      ScopedSpan span(&tracer, "core.analysis", probe.id(), job);
      const geom::FrameView rows(series.frames.sample(0, 0).data(),
                                 series.frame_count(), n);
      (void)traced_analysis({rows}, series.types, coarse, options, threads,
                            tracer, span.id(), job, dims, nullptr);
    } else if (!coarse) {
      for (std::size_t f = 0; f < aligned.size(); ++f) {
        ScopedSpan span(&tracer, "cluster", probe.id(), job,
                        static_cast<std::int64_t>(f));
        rng::Xoshiro256 engine = rng::make_stream(
            options.kmeans_seed, static_cast<std::uint64_t>(f));
        (void)align::coarse_grain_ensemble(aligned[f], options.kmeans_per_type,
                                           engine);
      }
    }
  }

  // Sample 0, step by step, at 1 thread, at the machine width, and at the
  // width this job's steps actually run at (kAuto's split).
  const std::size_t job_width = sim::resolve_parallel_policy(
      experiment.parallel, n, experiment.samples, threads).step_threads;
  std::optional<StepTimes> serial, wide, at_job_width;
  for (const std::size_t width : std::set<std::size_t>{1, threads, job_width}) {
    ScopedSpan span(&tracer, "replay.w" + std::to_string(width), 0, job);
    const StepTimes times = replay_sample0(series, experiment.simulation, width,
                                           tracer, span.id(), job);
    report.check(times.matches, "sample 0 re-run at " + std::to_string(width) +
                                    " threads is bitwise equal to the recording");
    if (width == 1) serial = times;
    if (width == threads) wide = times;
    if (width == job_width) at_job_width = times;
  }

  double dispatch = 0.0;
  {
    ScopedSpan span(&tracer, "support.dispatch", 0, job);
    dispatch = dispatch_us(threads);
  }

  // Serialization: one sample's CSV as the daemon streams it, repeated for a
  // stable median, and the bytes a whole job would stream.
  std::vector<double> csv_s;
  double stream_bytes = 0.0;
  {
    ScopedSpan span(&tracer, "io.sample_csv", 0, job);
    const auto t0 = Clock::now();
    while (csv_s.size() < 5 || (seconds_since(t0) < 0.2 && csv_s.size() < 200)) {
      const auto c0 = Clock::now();
      const std::string csv = core::sample_recording_csv(series, 0);
      csv_s.push_back(seconds_since(c0));
    }
    for (std::size_t s = 0; s < series.sample_count(); ++s) {
      stream_bytes += static_cast<double>(core::sample_recording_csv(series, s).size());
    }
    if (reference.analysis.has_value()) {
      std::ostringstream curve;
      io::write_csv(curve, core::analysis_csv_table(*reference.analysis,
                                                    options.compute_entropies));
      stream_bytes += static_cast<double>(curve.str().size());
    }
  }

  const std::string steps = std::to_string(experiment.simulation.steps + 1) + " steps";
  report.metric("core.sim_s", tracer.total_s("core.sim"), "s", "run_experiment span");
  report.metric("core.analysis_s", tracer.total_s("core.analysis"), "s",
                analyzed ? "analysis span" : "off-path probe on the recorded frames");
  report.metric("core.record_mb",
                static_cast<double>(core::JobManager::projected_payload_bytes(experiment)) / kMiB,
                "MiB", "computed F*m*n*16 bytes");
  report.metric("support.dispatch_us", dispatch, "us",
                "median of 25 x 200 empty run_partitioned, width " + std::to_string(threads));
  report.metric("sim.drift_us", at_job_width->drift_us, "us",
                "mean per step of " + steps + " at " + std::to_string(job_width) + " threads");
  report.metric("geom.rebuild_us", at_job_width->rebuild_us, "us", "mean per step");
  report.metric("sim.integrate_us", at_job_width->integrate_us, "us", "mean per step");
  report.metric("sim.residual_us", at_job_width->residual_us, "us", "mean per step");
  report.metric("sim.pairs_per_step", serial->pairs_per_step, "count",
                "pairs within r_c, mean over recorded frames");
  report.metric("sim.drift_ns_per_pair",
                serial->drift_us * 1e3 / std::max(serial->pairs_per_step, 1.0), "ns",
                "1-thread drift over pairs");
  report.metric("sim.drift_scaling", serial->drift_us / wide->drift_us, "x",
                "drift at 1 thread / at " + std::to_string(threads));
  const auto per_frame = [&](const char* name) {
    return std::to_string(tracer.count(name)) + " spans";
  };
  report.metric("align.align_ms", tracer.mean_s("align") * 1e3, "ms", per_frame("align"));
  report.metric("cluster.coarse_grain_ms", tracer.mean_s("cluster") * 1e3, "ms",
                per_frame("cluster") + (coarse && analyzed ? "" : ", off-path probe"));
  report.metric("info.cache_build_ms", tracer.mean_s("info.cache") * 1e3, "ms",
                per_frame("info.cache"));
  report.metric("info.ksg_ms", tracer.mean_s("info.ksg") * 1e3, "ms", per_frame("info.ksg"));
  report.metric("info.dims", static_cast<double>(dims), "count", "sample-matrix width");
  report.metric("io.sample_csv_us", median(csv_s) * 1e6, "us",
                "median of " + std::to_string(csv_s.size()) + " sample_recording_csv calls");
  report.metric("io.stream_mb_per_job", stream_bytes / kMiB, "MiB",
                "computed: every sample CSV plus the curve");
  return traced_wall_s;
}

void write_trace(const Tracer& tracer, const Options& options, Report& report) {
  std::filesystem::create_directories(kOutDir);
  const std::string stem = std::string(kOutDir) + "/" + options.workload + "_seed" +
                           std::to_string(options.seed);
  try {
    tracer.write_chrome_json(stem + ".trace.json", host_json(options));
    tracer.write_self_time_table(stem + ".selftime.txt");
    std::cout << "trace written to " << stem << ".trace.json and " << stem
              << ".selftime.txt\n";
    report.check(true, "trace files written");
  } catch (const std::exception& error) {
    report.check(false, error.what());
  }
}

}  // namespace e2e
