// Ensemble experiments: m independent stochastic runs of one collective
// (paper §5.1). The ensemble at a fixed recorded step is the sample set
// z⁽ᵗ⁾ from which the self-organization measure is estimated.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "core/frame_store.hpp"
#include "sim/simulation.hpp"

namespace sops::support {
class Executor;
}  // namespace sops::support

namespace sops::core {

/// Opt-in durable sharding of an experiment (CLI: `sops_run --shard k/N
/// --out path [--resume]`). A non-empty `path` turns the recording into a
/// persist-mode shard: the FrameStore is backed by exactly that file (kept
/// on destruction, crash-survivable) with a `<path>.manifest` sidecar that
/// records the run's identity and a per-sample completion bitmap. The
/// shard owns the sample slots chunk_range(index, samples, count) — slot
/// ranges of distinct indices are disjoint by construction, so N processes
/// can run one ensemble concurrently and merge_shards() assembles the
/// result. With `resume`, an existing matching shard is reopened and its
/// completed samples are skipped; (seed, stream) fully determine each
/// sample's trajectory, so the combined recording is bitwise-identical to
/// an uninterrupted run — which makes resume double as crash recovery.
struct ShardOptions {
  std::string path;        ///< shard data file; empty = sharding off
  std::size_t index = 0;   ///< k ∈ [0, count)
  std::size_t count = 1;   ///< N — how many shards split the ensemble
  bool resume = false;     ///< reopen a matching shard, skip completed work
};

struct EnsembleSeries;

/// Specification of a full experiment: one simulation config replicated over
/// m RNG streams. Everything is deterministic in (config, samples).
struct ExperimentConfig {
  explicit ExperimentConfig(sim::SimulationConfig simulation_config)
      : simulation(std::move(simulation_config)) {}

  sim::SimulationConfig simulation;
  std::size_t samples = 500;  ///< m
  std::size_t threads = 0;    ///< total worker-thread budget (0 = auto)
  /// Backing of the recorded FrameStore (config keys `frame_storage`,
  /// `spill_dir`, `spill_threshold_mb`). The recording grid F·m·n is known
  /// before the first step, so a mapped store is created at full size
  /// upfront and each sample's extents are flushed to disk — and dropped
  /// from the resident set — as soon as the sample finishes, off the
  /// sample fan-out via the chunk's lent step executor. Purely a storage
  /// choice: recorded positions are bitwise-identical in every mode.
  FrameStoreOptions storage{};
  /// How the thread budget is split between ensemble samples and each
  /// sample's intra-step drift sharding. kAuto keeps paper-sized ensembles
  /// (m ≥ threads) fully sample-parallel and moves the budget inside the
  /// step for single huge collectives; the split is resolved once here, so
  /// sample workers never nest further fan-outs. Any choice yields bitwise-
  /// identical results — the policy only redistributes the same work.
  sim::ParallelPolicy parallel = sim::ParallelPolicy::kAuto;
  /// Durable sharding / checkpoint-restart (see ShardOptions). Off by
  /// default; when on, `storage` spill settings are ignored in favor of
  /// the shard file.
  ShardOptions shard{};
  /// Optional recording hooks; neither affects the recording.
  /// `on_recording_started` runs once, on run_experiment's calling thread,
  /// after the series' store and recording grid exist but before any
  /// sample simulates; an exception thrown there propagates out of
  /// run_experiment before any work starts. `on_sample_recorded` runs from
  /// the sample workers once sample `local_sample` is fully finished: every
  /// frame recorded, its equilibrium step stored, and its extents flushed
  /// (scratch spill) or synced and marked complete in the manifest (shard).
  /// Its slots in the store are then final and safe to read concurrently
  /// with later samples; the hook must be thread-safe and must not throw.
  /// Resumed shard samples are not replayed (their completing run announced
  /// them; the series counts them in `resumed_samples`).
  std::function<void(const EnsembleSeries&)> on_recording_started;
  std::function<void(const EnsembleSeries&, std::size_t local_sample)>
      on_sample_recorded;
  /// Cooperative cancellation (not owned; may be null). Polled at every
  /// sample boundary and once per simulation step inside each sample:
  /// a raised token makes run_experiment throw sops::CancelledError after
  /// the in-flight step, unwinding through the normal cleanup path — a
  /// scratch spill file is unlinked, a durable shard keeps a valid
  /// manifest listing exactly the samples whose bytes were synced, and
  /// the pool (own or lent) is released.
  const support::CancelToken* cancel = nullptr;
  /// Executor view over a share of a machine-wide TaskPool (not owned; may
  /// be null). When set, the sample × step fan-out runs entirely inside
  /// this view — the caller's thread plus the view's workers — instead of a
  /// pool created for the run, so several experiments can run concurrently
  /// on one pool under per-job budgets (see core::JobManager). The thread
  /// budget resolves against the view's width; `threads` may narrow it
  /// further but never widens it. Purely a scheduling choice: recordings
  /// are bitwise-identical with and without a shared pool.
  const support::Executor* pool = nullptr;
};

/// The recorded ensemble: frames[f][s] is sample s at step frame_steps[f],
/// stored as one flat [frame][sample][particle] block (see FrameStore).
struct EnsembleSeries {
  std::vector<sim::TypeId> types;
  std::vector<std::size_t> frame_steps;
  FrameStore frames;
  /// Per-sample equilibrium step (if the criterion held during the run).
  std::vector<std::optional<std::size_t>> equilibrium_steps;
  /// First global sample slot of this series: 0 for whole-ensemble runs,
  /// the shard's slot_begin for sharded ones (frames/equilibrium_steps are
  /// then indexed by `global slot − slot_begin`).
  std::size_t slot_begin = 0;
  /// Samples found complete in the shard manifest and skipped (resume /
  /// crash recovery); 0 for fresh runs.
  std::size_t resumed_samples = 0;

  [[nodiscard]] std::size_t frame_count() const noexcept {
    return frames.frame_count();
  }
  [[nodiscard]] std::size_t sample_count() const noexcept {
    return frames.sample_count();
  }
  [[nodiscard]] std::size_t particle_count() const noexcept {
    return types.size();
  }

  /// Fraction of samples whose equilibrium criterion held by the last step.
  [[nodiscard]] double equilibrium_fraction() const noexcept;
};

/// Runs the experiment: samples stream s ∈ [0, m) are simulated in parallel
/// and recorded straight into the flat frame store (the recording grid is
/// known upfront, so every sample streams into disjoint pre-sized slots —
/// no per-trajectory staging copy). One TaskPool sized to the resolved
/// budget serves the whole experiment: sample chunks run on it, each chunk
/// reuses one SimulationWorkspace for all its samples, and each chunk's
/// per-step drift dispatch is lent a disjoint slice of the same pool — no
/// per-step thread creation anywhere. Results are bitwise-independent of
/// the thread count.
///
/// With ExperimentConfig::shard engaged the run covers only the shard's
/// slot range, records into the durable shard file, marks each sample
/// complete in the manifest once its bytes are on disk, and — on resume —
/// validates the existing manifest and skips completed samples. Throws
/// sops::Error when a resume target does not match the config (different
/// grid, seed, config hash, or slot range) or when durability cannot be
/// guaranteed (shard file unmappable, sync failure).
[[nodiscard]] EnsembleSeries run_experiment(const ExperimentConfig& config);

}  // namespace sops::core
