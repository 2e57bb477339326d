#include "info/sample_matrix.hpp"

#include <algorithm>
#include <cmath>

namespace sops::info {

std::vector<Block> uniform_blocks(std::size_t n, std::size_t block_dim) {
  support::expect(block_dim > 0, "uniform_blocks: block_dim must be positive");
  std::vector<Block> blocks;
  blocks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) blocks.push_back({i * block_dim, block_dim});
  return blocks;
}

void validate_block(const Block& block, std::size_t dim) {
  support::expect(block.dim > 0, "validate_block: empty block");
  support::expect(block.dim <= dim && block.offset <= dim - block.dim,
                  "validate_block: block out of range");
}

void validate_blocks(std::span<const Block> blocks, std::size_t dim) {
  support::expect(!blocks.empty(), "validate_blocks: no blocks");
  std::vector<char> covered(dim, 0);
  std::size_t total = 0;
  for (const Block& b : blocks) {
    validate_block(b, dim);
    for (std::size_t d = b.offset; d < b.offset + b.dim; ++d) {
      support::expect(!covered[d], "validate_blocks: overlapping blocks");
      covered[d] = 1;
    }
    total += b.dim;
  }
  support::expect(total == dim, "validate_blocks: blocks do not cover all dims");
}

void validate_finite(const SampleMatrix& samples, const Block& block) {
  bool finite = true;
  for (std::size_t s = 0; s < samples.count(); ++s) {
    const std::span<const double> row = samples.row(s);
    for (std::size_t d = block.offset; d < block.offset + block.dim; ++d) {
      finite = finite && std::isfinite(row[d]);
    }
  }
  support::expect(finite, "validate_finite: non-finite sample coordinate");
}

double block_dist_sq(const SampleMatrix& samples, std::size_t a, std::size_t b,
                     const Block& block) noexcept {
  const std::span<const double> ra = samples.row(a);
  const std::span<const double> rb = samples.row(b);
  double sum = 0.0;
  for (std::size_t d = block.offset; d < block.offset + block.dim; ++d) {
    const double diff = ra[d] - rb[d];
    sum += diff * diff;
  }
  return sum;
}

double block_max_dist(const SampleMatrix& samples, std::size_t a, std::size_t b,
                      std::span<const Block> blocks) noexcept {
  double max_sq = 0.0;
  for (const Block& block : blocks) {
    max_sq = std::max(max_sq, block_dist_sq(samples, a, b, block));
  }
  return std::sqrt(max_sq);
}

}  // namespace sops::info
