#include "info/kde.hpp"

#include <cmath>
#include <numbers>
#include <optional>
#include <vector>

#include "support/parallel_for.hpp"

namespace sops::info {
namespace {

// Pooled standard deviation over the block coordinates (bandwidth scale).
double block_scale(const SampleMatrix& samples, const Block& block) {
  const std::size_t m = samples.count();
  double mean_sq = 0.0;
  for (std::size_t d = block.offset; d < block.offset + block.dim; ++d) {
    double mean = 0.0;
    for (std::size_t s = 0; s < m; ++s) mean += samples(s, d);
    mean /= static_cast<double>(m);
    double var = 0.0;
    for (std::size_t s = 0; s < m; ++s) {
      const double diff = samples(s, d) - mean;
      var += diff * diff;
    }
    mean_sq += var / static_cast<double>(m);
  }
  return std::sqrt(mean_sq / static_cast<double>(block.dim));
}

}  // namespace

std::vector<double> kde_log2_density(const SampleMatrix& samples,
                                     const Block& block,
                                     const KdeOptions& options) {
  const std::size_t m = samples.count();
  support::expect(m >= 2, "kde_log2_density: need at least two samples");
  support::expect(options.bandwidth_scale > 0.0,
                  "kde_log2_density: bandwidth must be positive");
  validate_block(block, samples.dim());
  validate_finite(samples, block);

  const double d = static_cast<double>(block.dim);
  const double sigma = block_scale(samples, block);
  // Degenerate (zero-variance) blocks get a nominal bandwidth so the
  // estimate stays finite (the densities are then equal at every sample).
  const double h =
      options.bandwidth_scale * (sigma > 0.0 ? sigma : 1.0) *
      std::pow(static_cast<double>(m), -1.0 / (d + 4.0));
  const double inv_two_h_sq = 1.0 / (2.0 * h * h);
  const double log2_norm =
      -d * std::log2(h * std::sqrt(2.0 * std::numbers::pi)) -
      std::log2(static_cast<double>(m - 1));

  std::vector<double> log_density(m, 0.0);
  const auto chunk = [&](std::size_t begin, std::size_t end) {
    for (std::size_t s = begin; s < end; ++s) {
      double sum = 0.0;
      for (std::size_t j = 0; j < m; ++j) {
        if (j == s) continue;
        sum += std::exp(-block_dist_sq(samples, s, j, block) * inv_two_h_sq);
      }
      // Floor at the smallest positive double to keep log finite for
      // isolated samples.
      log_density[s] = std::log2(std::max(sum, 1e-300)) + log2_norm;
    }
  };
  std::optional<support::TaskPool> own_pool;
  if (options.executor == nullptr) own_pool.emplace(options.threads);
  const support::Executor& executor =
      options.executor != nullptr ? *options.executor : own_pool->executor();
  support::parallel_for_chunked(executor, 0, m, chunk);
  return log_density;
}

double multi_information_kde(const SampleMatrix& samples,
                             std::span<const Block> blocks,
                             const KdeOptions& options) {
  validate_blocks(blocks, samples.dim());
  const std::size_t m = samples.count();

  const Block joint{0, samples.dim()};
  const std::vector<double> joint_log = kde_log2_density(samples, joint, options);

  std::vector<double> marginal_log_sum(m, 0.0);
  for (const Block& block : blocks) {
    const std::vector<double> marginal = kde_log2_density(samples, block, options);
    for (std::size_t s = 0; s < m; ++s) marginal_log_sum[s] += marginal[s];
  }

  double total = 0.0;
  for (std::size_t s = 0; s < m; ++s) {
    total += joint_log[s] - marginal_log_sum[s];
  }
  return total / static_cast<double>(m);
}

}  // namespace sops::info
