// Asymmetric (non-reciprocal) interactions — the regime the paper rules
// out and why.
//
// §4.1: "choosing a non-symmetric matrix often leads to unstable dynamics
// or cycling patterns as the preferred distance is mutually different, we
// therefore only consider symmetric matrices in what follows."
//
// This module implements the ruled-out regime so the ablation bench can
// demonstrate the claim: type α may want distance r_αβ from β while β wants
// a different r_βα from α — chaser/evader dynamics with limit cycles
// instead of equilibria.
#pragma once

#include <cstddef>
#include <vector>

#include "rng/engine.hpp"
#include "sim/integrator.hpp"

namespace sops::sim {

/// Dense l×l matrix without the symmetry constraint.
class FullMatrix {
 public:
  FullMatrix() = default;
  explicit FullMatrix(std::size_t types, double fill = 0.0)
      : types_(types), data_(types * types, fill) {}

  [[nodiscard]] std::size_t types() const noexcept { return types_; }
  [[nodiscard]] double operator()(std::size_t a, std::size_t b) const {
    support::expect(a < types_ && b < types_, "FullMatrix: index out of range");
    return data_[a * types_ + b];
  }
  void set(std::size_t a, std::size_t b, double v) {
    support::expect(a < types_ && b < types_, "FullMatrix: index out of range");
    data_[a * types_ + b] = v;
  }

  /// True if the matrix equals its transpose.
  [[nodiscard]] bool is_symmetric() const noexcept;

  friend bool operator==(const FullMatrix&, const FullMatrix&) = default;

 private:
  std::size_t types_ = 0;
  std::vector<double> data_;
};

/// Interaction model whose parameters depend on the *ordered* type pair:
/// the force particle i of type α feels from j of type β uses (α, β)
/// entries, which may differ from (β, α). Reduces exactly to the symmetric
/// model when all matrices are symmetric (tested).
class AsymmetricInteractionModel {
 public:
  AsymmetricInteractionModel(ForceLawKind kind, std::size_t types,
                             PairParams defaults = {});

  [[nodiscard]] ForceLawKind kind() const noexcept { return kind_; }
  [[nodiscard]] std::size_t types() const noexcept { return k_.types(); }

  /// Parameters governing the force ON type `self` FROM type `other`.
  [[nodiscard]] PairParams pair(std::size_t self, std::size_t other) const {
    return {k_(self, other), r_(self, other), sigma_(self, other),
            tau_(self, other)};
  }
  [[nodiscard]] double scaling(std::size_t self, std::size_t other,
                               double x) const {
    return force_scaling(kind_, pair(self, other), x);
  }

  AsymmetricInteractionModel& set_k(std::size_t self, std::size_t other, double v);
  AsymmetricInteractionModel& set_r(std::size_t self, std::size_t other, double v);
  AsymmetricInteractionModel& set_sigma(std::size_t self, std::size_t other,
                                        double v);
  AsymmetricInteractionModel& set_tau(std::size_t self, std::size_t other,
                                      double v);

  /// True when every parameter matrix is symmetric (the paper's regime).
  [[nodiscard]] bool is_symmetric() const noexcept;

 private:
  ForceLawKind kind_;
  FullMatrix k_, r_, sigma_, tau_;
};

/// Drift under ordered-pair interactions (all-pairs within the cut-off;
/// the collectives this regime is studied on are small).
void accumulate_drift_asymmetric(const ParticleSystem& system,
                                 const AsymmetricInteractionModel& model,
                                 double cutoff_radius,
                                 std::vector<geom::Vec2>& out);

/// Euler–Maruyama step under an asymmetric model: the drift above, then
/// the symmetric engine's position update and step noise
/// (apply_euler_maruyama_update). Returns the pre-step Σ‖drift‖.
double euler_maruyama_step_asymmetric(ParticleSystem& system,
                                      const AsymmetricInteractionModel& model,
                                      double cutoff_radius,
                                      const IntegratorParams& params,
                                      rng::Xoshiro256& engine,
                                      std::vector<geom::Vec2>& drift_scratch);

/// The canonical cycling system (§4.1): type 0 prefers to sit at
/// `chase_distance` from type 1, type 1 prefers `evade_distance` > chase
/// from type 0 — their goals are mutually unsatisfiable.
[[nodiscard]] AsymmetricInteractionModel make_chaser_evader_model(
    double chase_distance = 1.0, double evade_distance = 3.0, double k = 1.0);

}  // namespace sops::sim
