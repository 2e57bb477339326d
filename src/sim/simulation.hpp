// Single-run simulation driver: initial condition, time stepping, trajectory
// recording, and stopping diagnostics. One run corresponds to one "sample"
// z̄ = (z⁽¹⁾, …, z⁽ᵗᵐᵃˣ⁾) of the paper (§5.1).
//
// The driver computes the drift of each configuration exactly once and
// shares it between integration, equilibrium detection, and recording (the
// residual Σ‖drift_i‖ is evaluated lazily, only when a consumer needs it).
// Frames can be recorded into a caller-owned sink (`run_simulation_streamed`)
// so ensemble drivers stream positions straight into flat storage without a
// per-trajectory staging copy.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "sim/detectors.hpp"
#include "sim/integrator.hpp"
#include "sim/parallel_policy.hpp"
#include "sim/workspace.hpp"
#include "support/cancel.hpp"

namespace sops::sim {

/// Equilibrium-criterion parameters (paper §4.1).
struct EquilibriumParams {
  double threshold = 0.5;      ///< on Σ‖drift_i‖
  std::size_t hold_steps = 10; ///< consecutive sub-threshold steps required
};

/// Full specification of one stochastic run. Everything that affects the
/// trajectory is in here; (seed, stream) alone distinguish ensemble samples.
struct SimulationConfig {
  explicit SimulationConfig(InteractionModel interaction_model)
      : model(std::move(interaction_model)) {}

  InteractionModel model;
  std::vector<TypeId> types;  ///< per-particle types; size defines n

  double cutoff_radius = kUnboundedRadius;  ///< r_c
  double init_disc_radius = 5.0;            ///< uniform-disc initialization radius
  IntegratorParams integrator{};
  NeighborMode neighbor_mode = NeighborMode::kAuto;

  std::size_t steps = 250;        ///< t_max
  std::size_t record_stride = 1;  ///< record every k-th step (plus step 0)
  bool stop_at_equilibrium = false;  ///< stop stepping once equilibrium holds
  EquilibriumParams equilibrium{};
  /// Feed every step's residual to the equilibrium detector. Disabling
  /// skips the per-step Σ‖drift_i‖ evaluation on non-recorded steps (the
  /// residual is then computed only for recorded frames) and leaves
  /// `equilibrium_step` unset. Must stay on for stop_at_equilibrium.
  bool track_equilibrium = true;

  std::uint64_t seed = 0;    ///< master experiment seed
  std::uint64_t stream = 0;  ///< sample index within the experiment

  /// Thread budget of this single run (0 = hardware concurrency). Spent
  /// inside each step's drift sum via the resolved `parallel_policy`: the
  /// workspace sizes a persistent TaskPool to the resolved width (or uses
  /// the view an ensemble driver lent it), so sharded steps dispatch onto
  /// parked workers instead of forking. The default of 1 keeps standalone
  /// runs serial. Never affects results: the sharded drift path is
  /// bitwise-identical to serial for any thread count.
  std::size_t threads = 1;
  ParallelPolicy parallel_policy = ParallelPolicy::kAuto;

  /// Cooperative cancellation (not owned; may be null). Polled once per
  /// step: a raised token makes the run throw sops::CancelledError at the
  /// top of its next step, before any further drift work — the unwound
  /// stack releases the workspace and any recording sink exactly as a
  /// failure would. Until the throw, everything the run produced is
  /// bitwise-identical to the uncancelled run's prefix.
  const support::CancelToken* cancel = nullptr;
};

/// Recorded run. `frames[f]` is the configuration at step `frame_steps[f]`;
/// frame 0 is always the initial condition.
struct Trajectory {
  std::vector<TypeId> types;
  std::vector<std::vector<geom::Vec2>> frames;
  std::vector<std::size_t> frame_steps;
  std::vector<double> residual_norms;  ///< Σ‖drift‖ before each recorded step
  std::optional<std::size_t> equilibrium_step;  ///< step where criterion held
  std::optional<std::size_t> cycle_period;      ///< from the limit-cycle scan

  [[nodiscard]] std::size_t frame_count() const noexcept { return frames.size(); }
  [[nodiscard]] std::size_t particle_count() const noexcept {
    return types.size();
  }
};

/// Everything a streamed run reports besides the frames themselves.
struct StreamedRun {
  std::vector<std::size_t> frame_steps;
  std::vector<double> residual_norms;
  std::optional<std::size_t> equilibrium_step;
};

/// Receives each recorded frame as it is produced: frame index on the
/// recording grid, the simulation step, and the configuration as SoA
/// coordinate lanes (valid only for the duration of the call — copy what
/// you keep; geom::interleave converts to Vec2 storage).
using FrameRecorder = std::function<void(
    std::size_t frame_index, std::size_t step, geom::PositionLanes)>;

/// The recording grid of a run that executes all `steps` steps: step 0,
/// every multiple of `stride`, and the final step.
[[nodiscard]] std::vector<std::size_t> recording_steps(std::size_t steps,
                                                       std::size_t stride);

/// Draws the paper's initial condition: n particles uniform on the disc of
/// `radius` centered at the origin.
[[nodiscard]] std::vector<geom::Vec2> sample_initial_disc(std::size_t n,
                                                          double radius,
                                                          rng::Xoshiro256& engine);

/// Runs one simulation to completion. Fully deterministic in the config.
[[nodiscard]] Trajectory run_simulation(const SimulationConfig& config);

/// Same, reusing a caller-owned workspace (neighbor backend, drift buffer,
/// RNG state) across calls — the allocation-free path for repeated runs.
[[nodiscard]] Trajectory run_simulation(const SimulationConfig& config,
                                        SimulationWorkspace& workspace);

/// Low-level streamed run: invokes `record_frame` for every recorded frame
/// instead of materializing a Trajectory. Deterministic in the config;
/// produces bit-identical positions to `run_simulation`.
StreamedRun run_simulation_streamed(const SimulationConfig& config,
                                    SimulationWorkspace& workspace,
                                    const FrameRecorder& record_frame);

}  // namespace sops::sim
