#include "sim/simulation.hpp"

#include "rng/samplers.hpp"

namespace sops::sim {

std::vector<std::size_t> recording_steps(std::size_t steps, std::size_t stride) {
  support::expect(steps >= 1, "recording_steps: steps must be >= 1");
  support::expect(stride >= 1, "recording_steps: stride must be >= 1");
  std::vector<std::size_t> out{0};
  for (std::size_t s = stride; s < steps; s += stride) out.push_back(s);
  out.push_back(steps);
  return out;
}

std::vector<geom::Vec2> sample_initial_disc(std::size_t n, double radius,
                                            rng::Xoshiro256& engine) {
  support::expect(radius > 0.0, "sample_initial_disc: radius must be positive");
  std::vector<geom::Vec2> positions;
  positions.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    positions.push_back(rng::uniform_disc(engine, radius));
  }
  return positions;
}

StreamedRun run_simulation_streamed(const SimulationConfig& config,
                                    SimulationWorkspace& workspace,
                                    const FrameRecorder& record_frame) {
  support::expect(!config.types.empty(), "run_simulation: no particles");
  support::expect(config.record_stride >= 1,
                  "run_simulation: record_stride must be >= 1");
  support::expect(config.steps >= 1, "run_simulation: steps must be >= 1");
  support::expect(config.track_equilibrium || !config.stop_at_equilibrium,
                  "run_simulation: stop_at_equilibrium needs track_equilibrium");

  workspace.prepare(config);
  rng::Xoshiro256& engine = workspace.engine();
  engine = rng::make_stream(config.seed, config.stream);

  ParticleSystem system(
      sample_initial_disc(config.types.size(), config.init_disc_radius, engine),
      config.types);
  support::expect(system.types_within(config.model.types()),
                  "run_simulation: particle type outside the model");

  EquilibriumDetector equilibrium(config.equilibrium.threshold,
                                  config.equilibrium.hold_steps);
  std::vector<geom::Vec2>& drift = workspace.drift();
  geom::NeighborBackend& backend = workspace.backend();

  StreamedRun out;
  // The recording grid has exactly one definition; equilibrium stops may
  // additionally record off-grid steps.
  const std::vector<std::size_t> grid =
      recording_steps(config.steps, config.record_stride);
  std::size_t next_grid_index = 0;

  // Each configuration's drift is computed exactly once and shared between
  // recording (frame t's residual), integration (the step t → t+1), and
  // equilibrium detection (which consumes residuals of steps 0..steps−1).
  bool stop_now = false;
  // One executor for the whole run: the workspace's persistent pool (or a
  // slice lent by the ensemble driver), so per-step sharding — grid
  // rebuild, drift, noise transform — is a dispatch onto parked workers,
  // not a fork/join.
  const support::Executor& step_executor = workspace.step_executor();
  for (std::size_t t = 0;; ++t) {
    // The per-step poll point: a cancelled run stops before the next
    // drift evaluation, so cancellation latency is one step, not one
    // sample.
    support::CancelToken::check(config.cancel, "simulation cancelled");
    accumulate_drift(system, workspace.scaling_table(), config.cutoff_radius,
                     drift, backend, step_executor);

    const bool on_grid =
        next_grid_index < grid.size() && grid[next_grid_index] == t;
    if (on_grid) ++next_grid_index;
    const bool record_now = on_grid || stop_now;
    double residual = 0.0;
    if (config.track_equilibrium || record_now) {
      residual = total_drift_norm(drift);
    }
    if (record_now) {
      out.frame_steps.push_back(t);
      out.residual_norms.push_back(residual);
      record_frame(out.frame_steps.size() - 1, t, system.lanes());
    }
    if (t == config.steps || stop_now) break;

    apply_euler_maruyama_update(system, drift, config.integrator, engine,
                                step_executor);

    if (config.track_equilibrium) {
      const bool was_triggered = equilibrium.triggered();
      equilibrium.update(residual);
      if (!was_triggered && equilibrium.triggered()) {
        out.equilibrium_step = t + 1;
      }
      // The run ends at the step where the criterion held: loop once more to
      // record the post-step configuration, then break before advancing.
      if (config.stop_at_equilibrium && equilibrium.triggered()) stop_now = true;
    }
  }
  return out;
}

Trajectory run_simulation(const SimulationConfig& config,
                          SimulationWorkspace& workspace) {
  Trajectory trajectory;
  trajectory.types = config.types;
  StreamedRun run = run_simulation_streamed(
      config, workspace,
      [&trajectory](std::size_t, std::size_t, geom::PositionLanes positions) {
        geom::interleave(positions, trajectory.frames.emplace_back());
      });
  trajectory.frame_steps = std::move(run.frame_steps);
  trajectory.residual_norms = std::move(run.residual_norms);
  trajectory.equilibrium_step = run.equilibrium_step;
  return trajectory;
}

Trajectory run_simulation(const SimulationConfig& config) {
  SimulationWorkspace workspace;
  return run_simulation(config, workspace);
}

}  // namespace sops::sim
