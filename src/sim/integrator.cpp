#include "sim/integrator.hpp"

#include <algorithm>
#include <cmath>

#include "rng/step_noise.hpp"
#include "support/parallel_for.hpp"

namespace sops::sim {

namespace {

// The deterministic half of a particle's step: dt · drift, capped at
// max_step (max_step_sq = 0 disables the cap).
geom::Vec2 drift_step(geom::Vec2 drift, const IntegratorParams& params,
                      double max_step_sq) {
  geom::Vec2 step = drift * params.dt;
  if (max_step_sq > 0.0 && geom::norm_sq(step) > max_step_sq) {
    step *= params.max_step / geom::norm(step);
  }
  return step;
}

}  // namespace

void apply_euler_maruyama_update(ParticleSystem& system,
                                 std::span<const geom::Vec2> drift,
                                 const IntegratorParams& params,
                                 rng::Xoshiro256& engine,
                                 const support::Executor& executor) {
  support::expect(
      params.dt > 0.0 && std::isfinite(params.dt),
      "apply_euler_maruyama_update: dt must be positive and finite");
  support::expect(
      params.noise_variance >= 0.0 && std::isfinite(params.noise_variance),
      "apply_euler_maruyama_update: noise variance must be finite and >= 0");
  support::expect(drift.size() == system.size(),
                  "apply_euler_maruyama_update: drift size mismatch");

  const double noise_scale =
      std::sqrt(params.dt) * std::sqrt(params.noise_variance);
  const double max_step_sq =
      params.max_step > 0.0 ? params.max_step * params.max_step : 0.0;
  const bool noisy = noise_scale > 0.0;
  // The step's one engine word keys every particle's noise, so each shard
  // generates its own particles' noise and any partition gives the same bits.
  const std::uint64_t key = noisy ? engine() : 0;
  const rng::StepNoiseKernels& noise = rng::select_step_noise_kernels();
  support::parallel_for_chunked(
      executor, 0, system.size(), [&](std::size_t begin, std::size_t end) {
        constexpr std::size_t kBlock = 256;
        double xi_x[kBlock];
        double xi_y[kBlock];
        for (std::size_t b = begin; b < end; b += kBlock) {
          const std::size_t m = std::min(kBlock, end - b);
          if (noisy) noise.normal_pairs(key, b, m, xi_x, xi_y);
          for (std::size_t j = 0; j < m; ++j) {
            geom::Vec2 step = drift_step(drift[b + j], params, max_step_sq);
            if (noisy) step += geom::Vec2{xi_x[j], xi_y[j]} * noise_scale;
            system.translate(b + j, step);
          }
        }
      });
}

}  // namespace sops::sim
