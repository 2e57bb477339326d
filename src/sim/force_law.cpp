#include "sim/force_law.hpp"

#include <cmath>

namespace sops::sim {

PairCoefficients pair_coefficients(const PairParams& p) noexcept {
  return {p.k, p.r, p.k / (p.sigma * p.sigma), -0.5 / p.sigma, -0.5 / p.tau};
}

double force_scaling(ForceLawKind kind, const PairParams& p, double x) {
  support::expect(x > 0.0, "force_scaling: distance must be positive");
  const PairCoefficients co = pair_coefficients(p);
  return force_scaling_of<double, std::uint64_t>(kind, co.k, co.r, co.c, co.a,
                                                 co.b, x * x);
}

double force_scaling_derivative(ForceLawKind kind, const PairParams& p,
                                double x) {
  support::expect(x > 0.0, "force_scaling_derivative: distance must be positive");
  switch (kind) {
    case ForceLawKind::kSpring:
      return p.k * p.r / (x * x);
    case ForceLawKind::kDoubleGaussian:
      return p.k * (-x / p.sigma * std::exp(-x * x / (2.0 * p.sigma)) /
                        (p.sigma * p.sigma) +
                    x / p.tau * std::exp(-x * x / (2.0 * p.tau)));
  }
  return 0.0;  // unreachable
}

std::optional<double> preferred_distance(ForceLawKind kind, const PairParams& p,
                                         double search_limit) {
  if (kind == ForceLawKind::kSpring) return p.r;

  // F²: the crossing, if it exists, solves
  //   e^{−x²/2σ}/σ² = e^{−x²/2τ}  ⇔  x² (1/2τ − 1/2σ) = 2 ln σ,
  // which has a positive solution exactly when sign(ln σ) == sign(σ − τ).
  if (p.sigma == p.tau) return std::nullopt;
  const double numerator = 4.0 * std::log(p.sigma) * p.sigma * p.tau;
  const double denominator = p.sigma - p.tau;
  const double x_sq = numerator / denominator;
  if (!(x_sq > 0.0)) return std::nullopt;
  const double x = std::sqrt(x_sq);
  if (x > search_limit) return std::nullopt;
  return x;
}

PairParams f2_params_for_preferred_distance(double target_r, double k,
                                            double tau) {
  support::expect(target_r > 0.0,
                  "f2_params_for_preferred_distance: radius must be positive");
  support::expect(tau > 0.0,
                  "f2_params_for_preferred_distance: tau must be positive");
  // Solve g(σ) := 4 σ τ ln σ / (σ − τ) − r² = 0 for σ > τ (repulsive core,
  // attractive tail). g is continuous and increasing in σ on (τ, ∞) for
  // τ ≥ 1; bisection on a bracket grown geometrically.
  const double r_sq = target_r * target_r;
  auto crossing_sq = [tau](double sigma) {
    return 4.0 * sigma * tau * std::log(sigma) / (sigma - tau);
  };
  double lo = tau * (1.0 + 1e-9);
  // As σ → τ⁺, crossing² → 4τ²·(lnτ + 1)·…; evaluate and expand upward.
  double hi = std::max(2.0 * tau, 2.0);
  while (crossing_sq(hi) < r_sq && hi < 1e12) hi *= 2.0;
  support::expect(crossing_sq(hi) >= r_sq,
                  "f2_params_for_preferred_distance: radius unreachable");
  if (crossing_sq(lo) > r_sq) {
    // Requested radius below the σ→τ⁺ limit: shrink τ and retry once.
    return f2_params_for_preferred_distance(target_r, k, tau * 0.5);
  }
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (crossing_sq(mid) < r_sq) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return {k, target_r, 0.5 * (lo + hi), tau};
}

InteractionModel::InteractionModel(ForceLawKind kind, std::size_t types,
                                   PairParams defaults)
    : kind_(kind),
      k_(types, defaults.k),
      r_(types, defaults.r),
      sigma_(types, defaults.sigma),
      tau_(types, defaults.tau) {
  validate();
}

InteractionModel::InteractionModel(ForceLawKind kind, SymmetricMatrix k,
                                   SymmetricMatrix r, SymmetricMatrix sigma,
                                   SymmetricMatrix tau)
    : kind_(kind),
      k_(std::move(k)),
      r_(std::move(r)),
      sigma_(std::move(sigma)),
      tau_(std::move(tau)) {
  support::expect(k_.types() == r_.types() && k_.types() == sigma_.types() &&
                      k_.types() == tau_.types(),
                  "InteractionModel: matrix sizes disagree");
  validate();
}

void InteractionModel::validate() const {
  // Exhaustive on purpose: a kind outside the enum (a cast, a version-skewed
  // caller) must fail here, loudly, instead of every law evaluation quietly
  // returning 0.
  const bool known_kind = [this] {
    switch (kind_) {
      case ForceLawKind::kSpring:
      case ForceLawKind::kDoubleGaussian:
        return true;
    }
    return false;
  }();
  support::expect(known_kind, "InteractionModel: unknown ForceLawKind value");
  support::expect(k_.types() > 0, "InteractionModel: needs at least one type");
  support::expect(sigma_.min_entry() > 0.0 || kind_ == ForceLawKind::kSpring,
                  "InteractionModel: sigma must be positive for F2");
  support::expect(tau_.min_entry() > 0.0 || kind_ == ForceLawKind::kSpring,
                  "InteractionModel: tau must be positive for F2");
  support::expect(r_.min_entry() >= 0.0,
                  "InteractionModel: preferred distances must be non-negative");
}

InteractionModel& InteractionModel::set_k(std::size_t a, std::size_t b,
                                          double v) {
  k_.set(a, b, v);
  return *this;
}
InteractionModel& InteractionModel::set_r(std::size_t a, std::size_t b,
                                          double v) {
  support::expect(v >= 0.0, "InteractionModel::set_r: negative radius");
  r_.set(a, b, v);
  return *this;
}
InteractionModel& InteractionModel::set_sigma(std::size_t a, std::size_t b,
                                              double v) {
  support::expect(v > 0.0, "InteractionModel::set_sigma: must be positive");
  sigma_.set(a, b, v);
  return *this;
}
InteractionModel& InteractionModel::set_tau(std::size_t a, std::size_t b,
                                            double v) {
  support::expect(v > 0.0, "InteractionModel::set_tau: must be positive");
  tau_.set(a, b, v);
  return *this;
}

}  // namespace sops::sim
