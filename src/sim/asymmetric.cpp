#include "sim/asymmetric.hpp"

#include <cmath>

namespace sops::sim {

bool FullMatrix::is_symmetric() const noexcept {
  for (std::size_t a = 0; a < types_; ++a) {
    for (std::size_t b = a + 1; b < types_; ++b) {
      if (data_[a * types_ + b] != data_[b * types_ + a]) return false;
    }
  }
  return true;
}

AsymmetricInteractionModel::AsymmetricInteractionModel(ForceLawKind kind,
                                                       std::size_t types,
                                                       PairParams defaults)
    : kind_(kind),
      k_(types, defaults.k),
      r_(types, defaults.r),
      sigma_(types, defaults.sigma),
      tau_(types, defaults.tau) {
  support::expect(types > 0,
                  "AsymmetricInteractionModel: needs at least one type");
  support::expect(defaults.sigma > 0.0 && defaults.tau > 0.0,
                  "AsymmetricInteractionModel: sigma/tau must be positive");
}

AsymmetricInteractionModel& AsymmetricInteractionModel::set_k(std::size_t self,
                                                              std::size_t other,
                                                              double v) {
  k_.set(self, other, v);
  return *this;
}
AsymmetricInteractionModel& AsymmetricInteractionModel::set_r(std::size_t self,
                                                              std::size_t other,
                                                              double v) {
  support::expect(v >= 0.0, "AsymmetricInteractionModel::set_r: negative");
  r_.set(self, other, v);
  return *this;
}
AsymmetricInteractionModel& AsymmetricInteractionModel::set_sigma(
    std::size_t self, std::size_t other, double v) {
  support::expect(v > 0.0, "AsymmetricInteractionModel::set_sigma: must be > 0");
  sigma_.set(self, other, v);
  return *this;
}
AsymmetricInteractionModel& AsymmetricInteractionModel::set_tau(
    std::size_t self, std::size_t other, double v) {
  support::expect(v > 0.0, "AsymmetricInteractionModel::set_tau: must be > 0");
  tau_.set(self, other, v);
  return *this;
}

bool AsymmetricInteractionModel::is_symmetric() const noexcept {
  return k_.is_symmetric() && r_.is_symmetric() && sigma_.is_symmetric() &&
         tau_.is_symmetric();
}

void accumulate_drift_asymmetric(const ParticleSystem& system,
                                 const AsymmetricInteractionModel& model,
                                 double cutoff_radius,
                                 std::vector<geom::Vec2>& out) {
  support::expect(cutoff_radius > 0.0,
                  "accumulate_drift_asymmetric: cutoff must be positive");
  support::expect(system.types_within(model.types()),
                  "accumulate_drift_asymmetric: particle type outside model");
  const std::size_t n = system.size();
  out.assign(n, geom::Vec2{});
  const double cutoff_sq = cutoff_radius * cutoff_radius;
  for (std::size_t i = 0; i < n; ++i) {
    geom::Vec2 drift{};
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const geom::Vec2 delta = system.position(i) - system.position(j);
      const double d_sq = geom::norm_sq(delta);
      if (d_sq == 0.0 || d_sq >= cutoff_sq) continue;
      const double scaling =
          model.scaling(system.types[i], system.types[j], std::sqrt(d_sq));
      drift += delta * (-scaling);
    }
    out[i] = drift;
  }
}

double euler_maruyama_step_asymmetric(ParticleSystem& system,
                                      const AsymmetricInteractionModel& model,
                                      double cutoff_radius,
                                      const IntegratorParams& params,
                                      rng::Xoshiro256& engine,
                                      std::vector<geom::Vec2>& drift_scratch) {
  support::expect(params.dt > 0.0,
                  "euler_maruyama_step_asymmetric: dt must be positive");
  support::expect(params.noise_variance >= 0.0,
                  "euler_maruyama_step_asymmetric: negative noise variance");

  accumulate_drift_asymmetric(system, model, cutoff_radius, drift_scratch);
  const double residual = total_drift_norm(drift_scratch);
  apply_euler_maruyama_update(system, drift_scratch, params, engine);
  return residual;
}

AsymmetricInteractionModel make_chaser_evader_model(double chase_distance,
                                                    double evade_distance,
                                                    double k) {
  support::expect(chase_distance > 0.0 && evade_distance > chase_distance,
                  "make_chaser_evader_model: need 0 < chase < evade");
  AsymmetricInteractionModel model(ForceLawKind::kSpring, 2,
                                   PairParams{k, 1.0, 1.0, 1.0});
  // Type 0 (chaser) wants to sit close to type 1; type 1 (evader) wants to
  // be much farther from type 0 — mutually unsatisfiable preferred
  // distances, the paper's recipe for cycling.
  model.set_r(0, 1, chase_distance);
  model.set_r(1, 0, evade_distance);
  // Within-type: neutral spacing at the midpoint scale.
  model.set_r(0, 0, chase_distance);
  model.set_r(1, 1, chase_distance);
  return model;
}

}  // namespace sops::sim
