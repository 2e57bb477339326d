// Euler–Maruyama integration of the overdamped SDE (Eq. 6):
//
//   z_i(t+dt) = z_i(t) + dt · drift_i(t) + √dt · ς · ξ,  ξ ~ N(0, I₂),
//
// where ς² is the paper's noise variance (0.05 throughout its experiments).
// ξ comes from the counter-based step noise of rng/step_noise.hpp: one
// engine word per noisy step keys the noise of every particle.
#pragma once

#include <cmath>
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
/// already-accumulated drift of the current configuration. A step is
/// accumulate_drift, then total_drift_norm (the pre-step equilibrium
/// statistic), then this update; the engine's stepping loop shares the one
/// drift computation between integration, recording, and equilibrium
/// detection.
///
/// A noisy step draws exactly one word from `engine`, the step key, and a
/// noiseless one (√dt·ς = 0) draws none. Particle i's ξ is a pure function
/// of (key, i) (rng/step_noise.hpp), so `executor` only decides which
/// runner updates which particles: every position bit and the engine's
/// final state are the same for every executor, and the same under the
/// scalar, generic and AVX2 noise kernels.
void apply_euler_maruyama_update(
    ParticleSystem& system, std::span<const geom::Vec2> drift,
    const IntegratorParams& params, rng::Xoshiro256& engine,
    const support::Executor& executor = support::serial_executor());

}  // namespace sops::sim
