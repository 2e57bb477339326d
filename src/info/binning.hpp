// Histogram ("binning") multi-information with optional James–Stein
// shrinkage of the cell probabilities (Hausser & Strimmer style).
//
// This is the comparison baseline of §5.3: the paper reports that in high
// dimension with sparse samples the shrinkage binning estimator
// overestimates so strongly that "almost no change in information could be
// seen". The ablation bench reproduces that failure mode.
#pragma once

#include <cstddef>
#include <span>

#include "info/sample_matrix.hpp"

namespace sops::info {

/// Binning estimator options.
struct BinningOptions {
  std::size_t bins_per_dim = 8;  ///< equal-width bins over each coordinate range
  bool james_stein_shrinkage = true;  ///< shrink cell probabilities toward uniform
};

/// Discrete entropy (bits) of the binned block variable. Exposed for tests.
/// Like every estimator, the binned ones throw PreconditionError on an empty
/// or out-of-range block and on a NaN or ±inf coordinate they would bin.
[[nodiscard]] double binned_entropy(const SampleMatrix& samples,
                                    const Block& block,
                                    const BinningOptions& options);

/// Multi-information Σ_i H(binned W_i) − H(binned W) in bits. Bin edges are
/// shared between the marginal and joint passes (per-coordinate equal-width
/// over the observed range), so the estimate is exactly zero for a single
/// block and non-negative up to shrinkage effects otherwise.
[[nodiscard]] double multi_information_binned(const SampleMatrix& samples,
                                              std::span<const Block> blocks,
                                              const BinningOptions& options = {});

/// James–Stein-shrunk entropy (bits) of a discrete histogram: probabilities
/// are shrunk toward the uniform distribution over `support_size` cells with
/// the closed-form optimal intensity, then plugged into Shannon entropy.
/// With shrinkage disabled this is the maximum-likelihood plug-in entropy.
[[nodiscard]] double shrinkage_entropy_bits(std::span<const std::size_t> counts,
                                            std::size_t support_size,
                                            bool james_stein_shrinkage);

}  // namespace sops::info
