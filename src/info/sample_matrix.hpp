// Sample ensembles and observer-variable blocks.
//
// An ensemble at a fixed time step is an m×D matrix: m i.i.d. samples of a
// D-dimensional state. Observer variables (the paper's W₁…W_n) are
// contiguous *blocks* of coordinates — e.g. each particle contributes a
// 2-wide block, a coarse-grained type observer contributes a 2·n_type-wide
// block. The joint metric of the KSG estimator (Eq. 19) is the max over
// blocks of the Euclidean block norm.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "support/error.hpp"

namespace sops::info {

/// One observer variable: a contiguous coordinate range [offset, offset+dim).
struct Block {
  std::size_t offset = 0;
  std::size_t dim = 0;
  friend bool operator==(const Block&, const Block&) = default;
};

/// m samples of a D-dimensional state, row-major.
class SampleMatrix {
 public:
  SampleMatrix() = default;
  SampleMatrix(std::size_t count, std::size_t dim)
      : count_(count), dim_(dim), data_(count * dim, 0.0) {}
  SampleMatrix(std::size_t count, std::size_t dim, std::vector<double> data)
      : count_(count), dim_(dim), data_(std::move(data)) {
    support::expect(data_.size() == count * dim,
                    "SampleMatrix: data size mismatch");
  }

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }

  [[nodiscard]] std::span<const double> row(std::size_t i) const {
    support::expect(i < count_, "SampleMatrix::row: index out of range");
    return {data_.data() + i * dim_, dim_};
  }
  [[nodiscard]] std::span<double> row(std::size_t i) {
    support::expect(i < count_, "SampleMatrix::row: index out of range");
    return {data_.data() + i * dim_, dim_};
  }

  [[nodiscard]] double operator()(std::size_t i, std::size_t d) const {
    return data_[i * dim_ + d];
  }
  [[nodiscard]] double& operator()(std::size_t i, std::size_t d) {
    return data_[i * dim_ + d];
  }

  [[nodiscard]] std::span<const double> flat() const noexcept { return data_; }

 private:
  std::size_t count_ = 0;
  std::size_t dim_ = 0;
  std::vector<double> data_;
};

/// Returns n equal blocks of width `block_dim` covering [0, n·block_dim) —
/// the per-particle observer layout (block_dim = 2).
[[nodiscard]] std::vector<Block> uniform_blocks(std::size_t n,
                                                std::size_t block_dim);

/// Verifies one block is non-empty and lies within `dim` coordinates.
/// Throws PreconditionError on violation.
void validate_block(const Block& block, std::size_t dim);

/// Verifies blocks are non-overlapping, in-range, and jointly cover `dim`
/// coordinates (they need not be ordered). Throws on violation.
void validate_blocks(std::span<const Block> blocks, std::size_t dim);

/// Verifies every sample's `block` coordinates are finite (pass
/// Block{0, samples.dim()} for the whole matrix). A NaN or ±inf throws
/// PreconditionError: the estimators' distance comparisons are meaningless
/// on it, and their search paths would disagree on the garbage.
void validate_finite(const SampleMatrix& samples, const Block& block);

/// Squared Euclidean norm of the block coordinates of (row a − row b).
[[nodiscard]] double block_dist_sq(const SampleMatrix& samples, std::size_t a,
                                   std::size_t b, const Block& block) noexcept;

/// The paper's joint metric (Eq. 19): max over blocks of the block L2 norm.
[[nodiscard]] double block_max_dist(const SampleMatrix& samples, std::size_t a,
                                    std::size_t b,
                                    std::span<const Block> blocks) noexcept;

}  // namespace sops::info
