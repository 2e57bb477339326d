// Euler–Maruyama integration of the overdamped SDE (Eq. 6):
//
//   z_i(t+dt) = z_i(t) + dt · drift_i(t) + √dt · ς · ξ,  ξ ~ N(0, I₂),
//
// where ς² is the paper's noise variance (0.05 throughout its experiments).
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "rng/engine.hpp"
#include "sim/forces.hpp"
#include "sim/particle_system.hpp"
#include "support/executor.hpp"

namespace sops::sim {

/// Parameters of the stochastic integrator.
struct IntegratorParams {
  /// Time step. One recorded paper "time step" equals one integrator step.
  double dt = 0.05;
  /// Variance of the additive white Gaussian noise w (paper: 0.05).
  double noise_variance = 0.05;
  /// Stability guard: per-step displacement magnitude cap (before noise).
  /// F¹'s drift is bounded, but large k_αβ with many neighbors inside r_c
  /// can overshoot an explicit step; the cap preserves equilibria (it only
  /// engages far from them). 0 disables the cap.
  double max_step = 2.0;
};

/// Applies the position update of one Euler–Maruyama step given the
/// already-accumulated drift of the current configuration. Draws the noise
/// from `engine` in particle order. Split out so the engine's stepping loop
/// can share one drift computation between integration, recording, and
/// equilibrium detection.
///
/// A width-1 `executor` draws and applies particle by particle. A wider one
/// first draws the step's engine words serially, in that same order, into
/// `noise_words` (a call-local buffer when null), then shards the Box–Muller
/// transform and the position update over `executor`. Every position bit
/// and the engine's final state are the same for every executor.
void apply_euler_maruyama_update(
    ParticleSystem& system, std::span<const geom::Vec2> drift,
    const IntegratorParams& params, rng::Xoshiro256& engine,
    support::Executor& executor = support::serial_executor(),
    std::vector<std::uint64_t>* noise_words = nullptr);

/// One Euler–Maruyama step, in place. `drift_scratch` avoids per-step
/// allocation; it is resized as needed. Returns the total drift norm
/// Σ‖drift_i‖ of the *pre-step* configuration (the equilibrium statistic),
/// so callers get it for free.
double euler_maruyama_step(ParticleSystem& system, const InteractionModel& model,
                           double cutoff_radius, const IntegratorParams& params,
                           rng::Xoshiro256& engine,
                           std::vector<geom::Vec2>& drift_scratch,
                           NeighborMode mode = NeighborMode::kAuto);

}  // namespace sops::sim
