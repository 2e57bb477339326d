#include "info/binning.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <vector>

namespace sops::info {
namespace {

// Per-coordinate equal-width bin index in [0, bins).
struct CoordinateBinner {
  double lo = 0.0;
  double width = 1.0;
  std::size_t bins = 1;

  [[nodiscard]] std::size_t bin(double v) const noexcept {
    if (width <= 0.0) return 0;
    const auto raw = static_cast<long long>((v - lo) / width);
    const long long clamped =
        std::clamp<long long>(raw, 0, static_cast<long long>(bins) - 1);
    return static_cast<std::size_t>(clamped);
  }
};

std::vector<CoordinateBinner> make_binners(const SampleMatrix& samples,
                                           std::size_t bins) {
  std::vector<CoordinateBinner> binners(samples.dim());
  for (std::size_t d = 0; d < samples.dim(); ++d) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -lo;
    for (std::size_t s = 0; s < samples.count(); ++s) {
      lo = std::min(lo, samples(s, d));
      hi = std::max(hi, samples(s, d));
    }
    binners[d] = {lo, hi > lo ? (hi - lo) / static_cast<double>(bins) : 0.0,
                  bins};
  }
  return binners;
}

// Histogram of the joint bin tuples of a block, keyed by a mixed hash of the
// per-coordinate bin indices.
std::vector<std::size_t> block_histogram(
    const SampleMatrix& samples, const Block& block,
    std::span<const CoordinateBinner> binners) {
  std::unordered_map<std::size_t, std::size_t> cells;
  cells.reserve(samples.count());
  for (std::size_t s = 0; s < samples.count(); ++s) {
    std::size_t key = 0xcbf29ce484222325ull;  // FNV-1a over bin indices
    for (std::size_t d = block.offset; d < block.offset + block.dim; ++d) {
      key ^= binners[d].bin(samples(s, d)) + 1;
      key *= 0x100000001b3ull;
    }
    ++cells[key];
  }
  std::vector<std::size_t> counts;
  counts.reserve(cells.size());
  for (const auto& [key, count] : cells) counts.push_back(count);
  return counts;
}

std::size_t block_support(const Block& block, const BinningOptions& options) {
  // bins^dim, saturating; only used as the shrinkage target support.
  double support = 1.0;
  for (std::size_t d = 0; d < block.dim; ++d) {
    support *= static_cast<double>(options.bins_per_dim);
    if (support > 1e18) return static_cast<std::size_t>(1e18);
  }
  return static_cast<std::size_t>(support);
}

}  // namespace

double shrinkage_entropy_bits(std::span<const std::size_t> counts,
                              std::size_t support_size,
                              bool james_stein_shrinkage) {
  support::expect(support_size >= 1,
                  "shrinkage_entropy_bits: empty support");
  std::size_t total = 0;
  for (const std::size_t c : counts) total += c;
  support::expect(total > 0, "shrinkage_entropy_bits: no observations");
  const double m = static_cast<double>(total);

  double lambda = 0.0;
  if (james_stein_shrinkage && total > 1) {
    // Optimal intensity λ* = (1 − Σ p̂²) / ((m − 1) Σ (t_k − p̂_k)²) with the
    // uniform target t_k = 1/support (Hausser & Strimmer 2009). Cells with
    // zero counts contribute t_k² each.
    const double t = 1.0 / static_cast<double>(support_size);
    double sum_p_sq = 0.0;
    double sum_dev_sq = 0.0;
    for (const std::size_t c : counts) {
      const double p = static_cast<double>(c) / m;
      sum_p_sq += p * p;
      sum_dev_sq += (t - p) * (t - p);
    }
    const double empty_cells =
        static_cast<double>(support_size) - static_cast<double>(counts.size());
    sum_dev_sq += empty_cells * t * t;
    if (sum_dev_sq > 0.0) {
      lambda = std::clamp((1.0 - sum_p_sq) / ((m - 1.0) * sum_dev_sq), 0.0, 1.0);
    }
  }

  const double t = 1.0 / static_cast<double>(support_size);
  double entropy = 0.0;
  for (const std::size_t c : counts) {
    const double p = (1.0 - lambda) * static_cast<double>(c) / m + lambda * t;
    if (p > 0.0) entropy -= p * std::log2(p);
  }
  if (lambda > 0.0) {
    const double empty_cells =
        static_cast<double>(support_size) - static_cast<double>(counts.size());
    const double p_empty = lambda * t;
    if (p_empty > 0.0 && empty_cells > 0.0) {
      entropy -= empty_cells * p_empty * std::log2(p_empty);
    }
  }
  return entropy;
}

double binned_entropy(const SampleMatrix& samples, const Block& block,
                      const BinningOptions& options) {
  support::expect(options.bins_per_dim >= 1, "binned_entropy: need >= 1 bin");
  support::expect(samples.count() > 0, "binned_entropy: no samples");
  validate_block(block, samples.dim());
  validate_finite(samples, block);
  const auto binners = make_binners(samples, options.bins_per_dim);
  const auto counts = block_histogram(samples, block, binners);
  return shrinkage_entropy_bits(counts, block_support(block, options),
                                options.james_stein_shrinkage);
}

double multi_information_binned(const SampleMatrix& samples,
                                std::span<const Block> blocks,
                                const BinningOptions& options) {
  validate_blocks(blocks, samples.dim());
  validate_finite(samples, Block{0, samples.dim()});
  const auto binners = make_binners(samples, options.bins_per_dim);

  double marginal_sum = 0.0;
  for (const Block& block : blocks) {
    const auto counts = block_histogram(samples, block, binners);
    marginal_sum += shrinkage_entropy_bits(
        counts, block_support(block, options), options.james_stein_shrinkage);
  }
  const Block joint{0, samples.dim()};
  const auto joint_counts = block_histogram(samples, joint, binners);
  const double joint_entropy = shrinkage_entropy_bits(
      joint_counts, block_support(joint, options), options.james_stein_shrinkage);
  return marginal_sum - joint_entropy;
}

}  // namespace sops::info
