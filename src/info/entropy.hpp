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

/// Kozachenko–Leonenko estimate of the differential entropy h(X) in bits,
/// where X is the D-dimensional row variable of `samples` (Euclidean metric):
///
///   ĥ = ψ(m) − ψ(k) + log₂ V_D + (D/m) Σ_s log₂ ε_s
///
/// with ε_s the distance from sample s to its k-th neighbor and V_D the
/// volume of the D-dimensional unit L2 ball.
[[nodiscard]] double entropy_kl(const SampleMatrix& samples, std::size_t k = 4,
                                std::size_t threads = 0);

/// Entropy of the coordinates restricted to one block.
[[nodiscard]] double entropy_kl_block(const SampleMatrix& samples,
                                      const Block& block, std::size_t k = 4,
                                      std::size_t threads = 0);

/// Multi-information as entropy difference Σ_i h(W_i) − h(W): noisier than
/// the KSG estimator (the length scales of the marginal and joint estimates
/// do not cancel) but a useful cross-check.
[[nodiscard]] double multi_information_kl(const SampleMatrix& samples,
                                          std::span<const Block> blocks,
                                          std::size_t k = 4,
                                          std::size_t threads = 0);

/// Executor-aware forms (mirroring KsgOptions::executor): the per-sample
/// query loop dispatches on a caller-lent executor — a persistent pool the
/// batch analysis reuses across frames — instead of forking transient
/// workers per call. Estimates are identical to the `threads` forms for
/// any width (per-sample terms are reduced in a fixed order).
[[nodiscard]] double entropy_kl(const SampleMatrix& samples, std::size_t k,
                                support::Executor& executor);
[[nodiscard]] double entropy_kl_block(const SampleMatrix& samples,
                                      const Block& block, std::size_t k,
                                      support::Executor& executor);
[[nodiscard]] double multi_information_kl(const SampleMatrix& samples,
                                          std::span<const Block> blocks,
                                          std::size_t k,
                                          support::Executor& executor);

class FrameNeighborCache;

/// Cache-aware forms: when `cache` (a FrameNeighborCache bound to `samples`)
/// is non-null, the k-th-neighbor distances come from the cached subspace
/// kd-tree — shared with the other entropy calls on the same frame —
/// instead of an exhaustive scan per sample. The k-th distance is an order statistic, so
/// the estimate is bitwise-identical either way; null `cache` is exactly the
/// executor form above.
[[nodiscard]] double entropy_kl(const SampleMatrix& samples, std::size_t k,
                                support::Executor& executor,
                                FrameNeighborCache* cache);
[[nodiscard]] double entropy_kl_block(const SampleMatrix& samples,
                                      const Block& block, std::size_t k,
                                      support::Executor& executor,
                                      FrameNeighborCache* cache);

/// log₂ of the volume of the D-dimensional unit L2 ball.
[[nodiscard]] double log2_unit_ball_volume(std::size_t dim);

/// Closed-form differential entropy (bits) of N(μ, σ²) per dimension:
/// h = D/2 · log₂(2πeσ²). Test oracle.
[[nodiscard]] double gaussian_entropy_bits(std::size_t dim, double sigma);

/// Closed-form mutual information (bits) of a bivariate normal with
/// correlation rho: I = −½ log₂(1 − ρ²). Test oracle.
[[nodiscard]] double gaussian_mi_bits(double rho);

}  // namespace sops::info
