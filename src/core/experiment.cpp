#include "core/experiment.hpp"

#include <algorithm>
#include <filesystem>

#include "core/shard.hpp"
#include "io/shard_manifest.hpp"
#include "support/error.hpp"
#include "support/executor.hpp"

namespace sops::core {
namespace {

// Compares the reopened manifest against what this config would produce,
// field by field, so a wrong --resume target fails with the actual
// discrepancy instead of a generic "mismatch".
void validate_resume_manifest(const io::ShardManifest& found,
                              const io::ShardManifest& expected,
                              const std::string& path) {
  const auto reject = [&](const std::string& what) {
    throw Error("resume: shard '" + path + "' " + what +
                " — it records a different experiment");
  };
  if (found.frames != expected.frames ||
      found.frame_steps != expected.frame_steps) {
    reject("has a different recording grid");
  }
  if (found.samples_total != expected.samples_total) {
    reject("was recorded for " + std::to_string(found.samples_total) +
           " samples, config says " + std::to_string(expected.samples_total));
  }
  if (found.particles != expected.particles) {
    reject("holds " + std::to_string(found.particles) +
           " particles per sample, config says " +
           std::to_string(expected.particles));
  }
  if (found.slot_begin != expected.slot_begin ||
      found.slot_end != expected.slot_end) {
    reject("owns sample slots [" + std::to_string(found.slot_begin) + ", " +
           std::to_string(found.slot_end) + "), this shard index owns [" +
           std::to_string(expected.slot_begin) + ", " +
           std::to_string(expected.slot_end) + ")");
  }
  if (found.master_seed != expected.master_seed) {
    reject("was recorded under master seed " +
           std::to_string(found.master_seed));
  }
  if (found.config_hash != expected.config_hash) {
    reject("has config hash " + std::to_string(found.config_hash) +
           ", config hashes to " + std::to_string(expected.config_hash));
  }
}

}  // namespace

double EnsembleSeries::equilibrium_fraction() const noexcept {
  if (equilibrium_steps.empty()) return 0.0;
  std::size_t reached = 0;
  for (const auto& step : equilibrium_steps) {
    if (step.has_value()) ++reached;
  }
  return static_cast<double>(reached) /
         static_cast<double>(equilibrium_steps.size());
}

EnsembleSeries run_experiment(const ExperimentConfig& config) {
  support::expect(config.samples >= 1, "run_experiment: need at least 1 sample");
  support::expect(!config.simulation.stop_at_equilibrium,
                  "run_experiment: ensembles need a fixed recording grid; "
                  "disable stop_at_equilibrium");
  support::expect(!config.simulation.types.empty(),
                  "run_experiment: no particles");
  const bool sharded = !config.shard.path.empty();
  support::expect(sharded || (config.shard.index == 0 &&
                              config.shard.count == 1 && !config.shard.resume),
                  "run_experiment: shard index/count/resume need shard.path");

  const std::size_t n = config.simulation.types.size();

  // The shard's slot slice of the ensemble; the whole ensemble when
  // sharding is off. Local sample s of this run is global slot
  // slots.begin + s — the value fed to SimulationConfig::stream, which is
  // all that distinguishes samples, so any partition of the slots yields
  // the same trajectories.
  if (sharded) {
    support::expect(config.shard.count >= 1 &&
                        config.shard.index < config.shard.count,
                    "run_experiment: shard index must lie in [0, count)");
    support::expect(config.shard.count <= config.samples,
                    "run_experiment: more shards than samples");
  }
  const support::ChunkRange slots =
      sharded ? support::chunk_range(config.shard.index, config.samples,
                                     config.shard.count)
              : support::ChunkRange{0, config.samples};
  const std::size_t m_local = slots.end - slots.begin;

  EnsembleSeries series;
  series.types = config.simulation.types;
  series.frame_steps = sim::recording_steps(config.simulation.steps,
                                            config.simulation.record_stride);
  series.slot_begin = slots.begin;
  series.equilibrium_steps.assign(m_local, std::nullopt);

  // Durable shard state: the manifest file (created fresh, or reopened and
  // validated on resume) plus the set of samples it already records.
  io::ShardManifestFile manifest;
  if (sharded) {
    io::ShardManifest expected = expected_shard_manifest(config);
    const std::string manifest_path = config.shard.path + ".manifest";
    const bool reopen =
        config.shard.resume && std::filesystem::exists(manifest_path) &&
        std::filesystem::exists(config.shard.path);
    FrameStoreOptions store_options;
    store_options.shard_path = config.shard.path;
    store_options.open_existing = reopen;
    if (reopen) {
      manifest = io::ShardManifestFile::open(manifest_path);
      validate_resume_manifest(manifest.manifest(), expected,
                               config.shard.path);
      series.frames = FrameStore(series.frame_steps.size(), m_local, n,
                                 store_options);
    } else {
      // Fresh shard: the data file first (its O_EXCL refuses to clobber an
      // existing recording whose manifest was lost), the manifest second —
      // a crash between the two leaves a zero-completion state that a
      // later --resume simply cannot reopen (no manifest), prompting a
      // clean restart.
      series.frames = FrameStore(series.frame_steps.size(), m_local, n,
                                 store_options);
      manifest = io::ShardManifestFile::create(manifest_path,
                                               std::move(expected));
    }
    for (std::size_t local = 0; local < m_local; ++local) {
      if (!manifest.manifest().is_complete(local)) continue;
      ++series.resumed_samples;
      const std::uint64_t equilibrium =
          manifest.manifest().equilibrium_steps[local];
      if (equilibrium != io::kNoEquilibriumStep) {
        series.equilibrium_steps[local] =
            static_cast<std::size_t>(equilibrium);
      }
    }
  } else {
    series.frames =
        FrameStore(series.frame_steps.size(), m_local, n, config.storage);
  }

  // The store and grid exist: let the caller set up before any sample runs.
  if (config.on_recording_started) config.on_recording_started(series);

  // Local indices still to simulate: everything on a fresh run, the
  // cleared manifest bits on a resume. Completed samples' bytes are
  // already in the mapped shard file — skipping them is what makes resume
  // crash-recovery, and (seed, stream) determinism makes the combination
  // bitwise-identical to an uninterrupted run.
  std::vector<std::size_t> pending;
  pending.reserve(m_local);
  for (std::size_t local = 0; local < m_local; ++local) {
    if (!sharded || !manifest.manifest().is_complete(local)) {
      pending.push_back(local);
    }
  }

  if (!pending.empty()) {
    // The thread budget is allocated exactly once, before any fan-out:
    // sample workers receive a fixed intra-step share, so parallelism
    // cannot nest beyond sample_threads × step_threads ≤ threads live
    // workers. Sized to the *pending* count — a nearly-complete resume
    // should not spin up workers with nothing to run. With a shared-pool
    // view the budget is the view's width (narrowed further by
    // config.threads if set): the experiment's whole fan-out must fit the
    // workers its job was lent.
    std::size_t thread_budget = config.threads;
    if (config.pool != nullptr) {
      thread_budget = thread_budget == 0
                          ? config.pool->width()
                          : std::min(thread_budget, config.pool->width());
    }
    const sim::ThreadBudget budget = sim::resolve_parallel_policy(
        config.parallel, n, pending.size(), thread_budget);
    const std::size_t sample_workers = budget.sample_threads;
    const std::size_t step_share = budget.step_threads;

    // One pool view for the whole experiment, sized to the full budget:
    // the caller's own pool normally, the lent shared-pool view under a
    // JobManager. run_partitioned lends sample chunk k a disjoint helper
    // sub-view for its per-step drift dispatches while the sample fan-out
    // runs on the rest, so nested dispatches never contend for a worker
    // and the live-thread count never exceeds the budget. One workspace
    // per sample chunk, reused across the chunk's whole run of samples:
    // the neighbor backend and drift buffer warm up on the first sample
    // and every later sample steps allocation-free.
    std::optional<support::TaskPool> own_pool;
    if (config.pool == nullptr) {
      own_pool.emplace(sample_workers * step_share);
    }
    const support::Executor& pool =
        config.pool != nullptr ? *config.pool : own_pool->executor();
    pool.run_partitioned(
        sample_workers, step_share,
        [&](std::size_t k, const support::Executor& step_executor) {
          const support::ChunkRange chunk =
              support::chunk_range(k, pending.size(), sample_workers);
          sim::SimulationWorkspace workspace;
          workspace.lend_executor(step_executor);
          sim::SimulationConfig sample_config = config.simulation;
          // Recorded for introspection; the lent executor's width is what
          // the workspace actually uses.
          sample_config.parallel_policy = sim::ParallelPolicy::kWithinStep;
          sample_config.threads = step_share;
          sample_config.cancel = config.cancel;
          for (std::size_t p = chunk.begin; p < chunk.end; ++p) {
            // The sample-boundary poll point; the per-step poll inside
            // run_simulation_streamed bounds the in-sample latency.
            support::CancelToken::check(config.cancel,
                                        "run_experiment: cancelled");
            const std::size_t local = pending[p];
            sample_config.stream = slots.begin + local;
            const sim::StreamedRun run = sim::run_simulation_streamed(
                sample_config, workspace,
                [&](std::size_t f, std::size_t step,
                    geom::PositionLanes positions) {
                  // The store was pre-sized from recording_steps(); a frame
                  // outside that grid must fail here, not write out of
                  // bounds.
                  support::expect(f < series.frame_steps.size() &&
                                      step == series.frame_steps[f],
                                  "run_experiment: recording grid diverged");
                  const auto slot = series.frames.sample_slot(f, local);
                  for (std::size_t i = 0; i < positions.size(); ++i) {
                    slot[i] = positions[i];
                  }
                });
            support::expect(run.frame_steps == series.frame_steps,
                            "run_experiment: recording grids diverged");
            series.equilibrium_steps[local] = run.equilibrium_step;
            if (sharded) {
              // Durability order is the crash-safety invariant: the
              // sample's extents go to disk (MS_SYNC), *then* its manifest
              // bit flips. A crash anywhere leaves either an unmarked
              // sample (redone on resume, bitwise the same) or a fully
              // durable one — never a marked sample with lost bytes.
              if (!series.frames.sync_samples(local, local + 1,
                                              &step_executor)) {
                throw Error("run_experiment: cannot sync shard sample " +
                            std::to_string(slots.begin + local) + " to '" +
                            config.shard.path +
                            "': " + series.frames.flush_error());
              }
              const auto equilibrium = run.equilibrium_step;
              manifest.mark_complete(
                  local, equilibrium.has_value()
                             ? std::optional<std::uint64_t>(*equilibrium)
                             : std::nullopt);
            } else {
              // Spilled scratch stores: the sample's extents (one per frame
              // — disjoint file ranges across samples, mirroring the
              // disjoint sample_slot writes) are complete, so push them to
              // disk and drop their pages from the resident set before the
              // next sample dirties more. Sharded over the chunk's lent
              // step executor — idle between samples — to keep the flush
              // off the sample fan-out. No-op on heap backing.
              series.frames.flush_samples(local, local + 1, &step_executor);
            }
            if (config.on_sample_recorded) {
              // After the durability step (sync + manifest bit for shards,
              // flush for scratch spill): the sample the hook is told about
              // is exactly as final as the store claims.
              config.on_sample_recorded(series, local);
            }
          }
        });
  }
  // Recording finished: whoever consumes the series next (the analyzer's
  // frame-by-frame pass) reads the spilled pages back front to back.
  series.frames.advise_sequential_reads();
  return series;
}

}  // namespace sops::core
