#include "sim/integrator.hpp"

#include "rng/samplers.hpp"
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
                                 support::Executor& executor,
                                 std::vector<std::uint64_t>* noise_words) {
  support::expect(params.dt > 0.0,
                  "apply_euler_maruyama_update: dt must be positive");
  support::expect(params.noise_variance >= 0.0,
                  "apply_euler_maruyama_update: negative noise variance");
  support::expect(drift.size() == system.size(),
                  "apply_euler_maruyama_update: drift size mismatch");

  const double noise_scale =
      std::sqrt(params.dt) * std::sqrt(params.noise_variance);
  const double max_step_sq =
      params.max_step > 0.0 ? params.max_step * params.max_step : 0.0;
  const std::size_t n = system.size();

  if (executor.width() <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      geom::Vec2 step = drift_step(drift[i], params, max_step_sq);
      if (noise_scale > 0.0) {
        step += rng::normal_vec2(engine, 1.0) * noise_scale;
      }
      system.translate(i, step);
    }
    return;
  }

  // The engine is one serial stream, so only the draws stay serial: the
  // words land in particle order, and the transcendental Box–Muller math
  // (normal_vec2's own expressions, via normal_vec2_of) runs sharded.
  std::vector<std::uint64_t> local_words;
  std::vector<std::uint64_t>& words =
      noise_words != nullptr ? *noise_words : local_words;
  if (noise_scale > 0.0) {
    words.resize(rng::kNormalVec2Words * n);
    for (std::uint64_t& word : words) word = engine();
  }
  support::parallel_for_chunked(
      executor, 0, n, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          geom::Vec2 step = drift_step(drift[i], params, max_step_sq);
          if (noise_scale > 0.0) {
            step += rng::normal_vec2_of(&words[rng::kNormalVec2Words * i],
                                        1.0) *
                    noise_scale;
          }
          system.translate(i, step);
        }
      });
}

double euler_maruyama_step(ParticleSystem& system, const InteractionModel& model,
                           double cutoff_radius, const IntegratorParams& params,
                           rng::Xoshiro256& engine,
                           std::vector<geom::Vec2>& drift_scratch,
                           NeighborMode mode) {
  accumulate_drift(system, model, cutoff_radius, drift_scratch, mode);
  const double residual = total_drift_norm(drift_scratch);
  apply_euler_maruyama_update(system, drift_scratch, params, engine);
  return residual;
}

}  // namespace sops::sim
