// Differential-entropy estimation and Gaussian references.
//
// The paper's discussion (§6) tracks how the sum of marginal entropies and
// the joint entropy evolve; the Kozachenko–Leonenko k-NN estimator provides
// those curves. The closed-form Gaussian entropies/ MI back the estimator
// tests and the §5.3 comparison bench.
#pragma once

#include <cstddef>
#include <span>

#include "info/sample_matrix.hpp"

namespace sops::support {
class Executor;
}  // namespace sops::support

namespace sops::info {

class FrameNeighborCache;

/// Kozachenko–Leonenko estimate of the differential entropy h(X) in bits,
/// where X is the D-dimensional row variable of `samples` (Euclidean metric):
///
///   ĥ = ψ(m) − ψ(k) + log₂ V_D + (D/m) Σ_s log₂ ε_s
///
/// with ε_s the distance from sample s to its k-th neighbor and V_D the
/// volume of the D-dimensional unit L2 ball.
///
/// The per-sample query loop dispatches on `executor` (a persistent pool the
/// batch analysis reuses across frames, or serial_executor()); per-sample
/// terms are reduced in a fixed order, so the estimate is identical for any
/// width. When `cache` (a FrameNeighborCache bound to `samples`) is
/// non-null, the k-th-neighbor distances come from the cached subspace
/// kd-tree — shared with the other entropy calls on the same frame —
/// instead of an exhaustive scan per sample. The k-th distance is an order
/// statistic, so the estimate is bitwise-identical either way.
///
/// Requirements: k >= 1, at least k+1 samples, every coordinate finite (a
/// NaN or ±inf throws PreconditionError).
[[nodiscard]] double entropy_kl(const SampleMatrix& samples, std::size_t k,
                                const support::Executor& executor,
                                FrameNeighborCache* cache = nullptr);

/// Entropy of the coordinates restricted to one block, which must be
/// non-empty and in range; only that block's coordinates must be finite.
/// Dispatch, cache and requirements as in entropy_kl.
[[nodiscard]] double entropy_kl_block(const SampleMatrix& samples,
                                      const Block& block, std::size_t k,
                                      const support::Executor& executor,
                                      FrameNeighborCache* cache = nullptr);

/// Multi-information as entropy difference Σ_i h(W_i) − h(W): noisier than
/// the KSG estimator (the length scales of the marginal and joint estimates
/// do not cancel) but a useful cross-check. Dispatch as in entropy_kl.
[[nodiscard]] double multi_information_kl(const SampleMatrix& samples,
                                          std::span<const Block> blocks,
                                          std::size_t k,
                                          const support::Executor& executor);

/// log₂ of the volume of the D-dimensional unit L2 ball.
[[nodiscard]] double log2_unit_ball_volume(std::size_t dim);

/// Closed-form differential entropy (bits) of N(μ, σ²) per dimension:
/// h = D/2 · log₂(2πeσ²). Test oracle.
[[nodiscard]] double gaussian_entropy_bits(std::size_t dim, double sigma);

/// Closed-form mutual information (bits) of a bivariate normal with
/// correlation rho: I = −½ log₂(1 − ρ²). Test oracle.
[[nodiscard]] double gaussian_mi_bits(double rho);

}  // namespace sops::info
