// The paper's two force-scaling families, Eqs. (7) and (8), and the
// interaction model bundling the per-type-pair parameter matrices.
//
// Sign convention (fixed by Eq. 6, ż_i = Σ −F(‖Δz‖)·Δz with Δz = z_i − z_j):
// positive force scaling is ATTRACTION toward the neighbor, negative is
// repulsion. F¹ therefore repels below its preferred distance r_αβ and
// attracts above it; F² with σ ≤ τ is purely repulsive and decaying (the
// paper's σ = 1 setting), while σ > τ produces a repulsive core with an
// attractive tail whose zero crossing acts as the preferred distance.
#pragma once

#include <cstddef>
#include <optional>

#include "sim/symmetric_matrix.hpp"
#include "support/lane_math.hpp"

namespace sops::sim {

/// Which of the paper's force-scaling families Eq. (7)/(8) is in effect.
enum class ForceLawKind {
  kSpring,          ///< F¹, Eq. (7): k (1 − r/x); long-range attraction up to r_c
  kDoubleGaussian,  ///< F², Eq. (8): k (e^{−x²/2σ}/σ² − e^{−x²/2τ}); decaying
};

/// Scalar parameters of a single type pair (α, β).
struct PairParams {
  double k = 1.0;      ///< interaction strength k_αβ
  double r = 1.0;      ///< preferred distance r_αβ (used by F¹ only)
  double sigma = 1.0;  ///< σ_αβ (used by F² only)
  double tau = 1.0;    ///< τ_αβ (used by F² only)
};

/// One pair's parameters in the form the laws evaluate: F¹ reads k and r;
/// F² reads c = k/σ², a = −1/(2σ), k and b = −1/(2τ), so that
/// F²(x) = c·e^{a·x²} − k·e^{b·x²} needs no division per pair.
struct PairCoefficients {
  double k;  ///< k_αβ
  double r;  ///< r_αβ
  double c;  ///< k_αβ / σ_αβ²
  double a;  ///< −1 / (2σ_αβ)
  double b;  ///< −1 / (2τ_αβ)
};

/// The coefficients of `p` — the one place they are derived, shared by
/// force_scaling() and PairScalingTable.
[[nodiscard]] PairCoefficients pair_coefficients(const PairParams& p) noexcept;

/// F_αβ at squared distance d2 — the one definition of both laws'
/// expressions, shared by force_scaling(), the scalar reference kernels
/// (D = double, W = std::uint64_t) and the vector kernels (D = support::v4d,
/// W = support::v4w), so every path evaluates the identical op sequence:
///
///   F¹: k·(1 − r/√d2)
///   F²: c·exp(a·d2) − k·exp(b·d2), exp being support::lane_exp.
///
/// Requires d2 > 0 and a kind InteractionModel accepts.
///
/// Deliberately `static` (internal linkage): the kernels inline it into
/// ISA-targeted functions, and a shared inline definition could be merged
/// by the linker into whichever encoding it saw first.
template <typename D, typename W>
__attribute__((always_inline)) static inline D force_scaling_of(
    ForceLawKind kind, D k, D r, D c, D a, D b, D d2) {
  if (kind == ForceLawKind::kSpring) {
    return k * (1.0 - r / support::lane_sqrt(d2));
  }
  return c * support::lane_exp<D, W>(a * d2) -
         k * support::lane_exp<D, W>(b * d2);
}

/// Evaluates the force scaling F_αβ(x) for inter-particle distance x > 0.
/// Note F¹ diverges to −∞ as x → 0; the *velocity* contribution
/// −F(x)·Δz stays bounded for F¹ because the scaling multiplies Δz.
[[nodiscard]] double force_scaling(ForceLawKind kind, const PairParams& p,
                                   double x);

/// Derivative dF/dx (used by tests and by the preferred-distance solver).
[[nodiscard]] double force_scaling_derivative(ForceLawKind kind,
                                              const PairParams& p, double x);

/// The distance at which the force scaling crosses zero (repulsion turns to
/// attraction), if any, searched on (0, search_limit]. For F¹ this is exactly
/// p.r; for F² it exists in the σ > τ regime and is found by bisection.
[[nodiscard]] std::optional<double> preferred_distance(
    ForceLawKind kind, const PairParams& p, double search_limit = 100.0);

/// Chooses F² parameters (σ solved numerically, given τ and k) so the zero
/// crossing lands at `target_r`. This realizes figure captions that specify
/// F² interactions by their "preferred distance radii". Requires target_r > 0.
[[nodiscard]] PairParams f2_params_for_preferred_distance(double target_r,
                                                          double k = 1.0,
                                                          double tau = 1.0);

/// Complete interaction specification: the law family plus all parameter
/// matrices. Immutable once built; validated on construction (a kind
/// outside ForceLawKind throws PreconditionError).
class InteractionModel {
 public:
  /// Builds a model for `types` particle types with all pair parameters set
  /// to the given defaults.
  InteractionModel(ForceLawKind kind, std::size_t types,
                   PairParams defaults = {});

  /// Builds a model from explicit matrices (all must be `types`×`types`).
  InteractionModel(ForceLawKind kind, SymmetricMatrix k, SymmetricMatrix r,
                   SymmetricMatrix sigma, SymmetricMatrix tau);

  [[nodiscard]] ForceLawKind kind() const noexcept { return kind_; }
  [[nodiscard]] std::size_t types() const noexcept { return k_.types(); }

  /// Parameters of the (a, b) pair.
  [[nodiscard]] PairParams pair(std::size_t a, std::size_t b) const {
    return {k_(a, b), r_(a, b), sigma_(a, b), tau_(a, b)};
  }

  /// F_αβ(x) for the (a, b) pair.
  [[nodiscard]] double scaling(std::size_t a, std::size_t b, double x) const {
    return force_scaling(kind_, pair(a, b), x);
  }

  /// Mutators (builder style); entries are set symmetrically.
  InteractionModel& set_k(std::size_t a, std::size_t b, double v);
  InteractionModel& set_r(std::size_t a, std::size_t b, double v);
  InteractionModel& set_sigma(std::size_t a, std::size_t b, double v);
  InteractionModel& set_tau(std::size_t a, std::size_t b, double v);

  /// Access to the underlying matrices.
  [[nodiscard]] const SymmetricMatrix& k_matrix() const noexcept { return k_; }
  [[nodiscard]] const SymmetricMatrix& r_matrix() const noexcept { return r_; }
  [[nodiscard]] const SymmetricMatrix& sigma_matrix() const noexcept {
    return sigma_;
  }
  [[nodiscard]] const SymmetricMatrix& tau_matrix() const noexcept {
    return tau_;
  }

 private:
  void validate() const;

  ForceLawKind kind_;
  SymmetricMatrix k_, r_, sigma_, tau_;
};

}  // namespace sops::sim
