// Reusable per-run scratch state of the simulation engine.
//
// A workspace owns everything a run needs besides the configuration: the
// drift buffer, the persistent neighbor backend, the RNG engine,
// and — when the run's resolved policy shards steps — the persistent
// TaskPool the per-step dispatches run on. One workspace serves many runs
// back to back (the ensemble driver hands each worker thread one workspace
// for its whole chunk of samples), so buffer capacity, the backend's index
// scratch, and the pool's parked workers warm up once and are retained —
// steady-state stepping performs no allocation and no thread creation.
//
// An ensemble driver that already owns a pool lends a view of it instead
// (`lend_executor`), so sample × step parallelism never exceeds the
// experiment's resolved budget in live threads.
//
// Not thread-safe: use one workspace per worker.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "geom/neighbor_backend.hpp"
#include "geom/vec2.hpp"
#include "rng/engine.hpp"
#include "sim/forces.hpp"
#include "support/executor.hpp"

namespace sops::sim {

struct SimulationConfig;

class SimulationWorkspace {
 public:
  /// Prepares the workspace for a run of `config`: resolves the neighbor
  /// strategy once, (re)creates the backend only when the resolved kind
  /// changed since the previous run, caches the run's pair-scaling table,
  /// and sizes the step executor — the lent one if set, otherwise an owned
  /// TaskPool of the resolved intra-step width (created on first use,
  /// reused while the width stays the same, serial for width 1). Scratch
  /// capacity is always retained.
  void prepare(const SimulationConfig& config);

  /// The persistent backend for the prepared run.
  [[nodiscard]] geom::NeighborBackend& backend();

  /// The prepared run's dense pair-parameter table.
  [[nodiscard]] const PairScalingTable& scaling_table() const;

  [[nodiscard]] std::vector<geom::Vec2>& drift() noexcept { return drift_; }
  [[nodiscard]] rng::Xoshiro256& engine() noexcept { return engine_; }

  /// Borrows an executor view for the intra-step drift dispatch instead of
  /// the workspace sizing its own pool — the ensemble driver lends each
  /// sample worker a disjoint view of the experiment's pool this way. The
  /// view's pool must outlive every run that uses this workspace.
  void lend_executor(const support::Executor& executor) noexcept {
    step_executor_ = executor;
    lent_ = true;
  }

  /// The executor the prepared run's per-step drift dispatch runs on.
  [[nodiscard]] support::Executor& step_executor() noexcept {
    return step_executor_;
  }

  /// Width of `step_executor()` — the threads the prepared run may spend
  /// inside each step's drift sum.
  [[nodiscard]] std::size_t step_threads() const noexcept {
    return step_executor_.width();
  }

 private:
  std::vector<geom::Vec2> drift_;
  std::optional<geom::NeighborBackend> backend_;
  std::optional<PairScalingTable> scaling_table_;
  rng::Xoshiro256 engine_{0};
  std::unique_ptr<support::TaskPool> owned_pool_;
  support::Executor step_executor_;
  bool lent_ = false;
};

}  // namespace sops::sim
