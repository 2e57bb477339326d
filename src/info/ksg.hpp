// Kraskov–Stögbauer–Grassberger multi-information estimator (paper §5.3,
// Eqs. 18–20):
//
//   I(W₁,…,W_n) ≈ ψ(k) + (n−1)ψ(m) − ⟨ Σ_i ψ(c_i) ⟩,
//
// where the joint metric is the max over observer blocks of the block L2
// norm, ε_s is the distance to the k-th neighbor of sample s under that
// metric, and c_i counts samples whose block-i marginal lies strictly
// within ε_s.
#pragma once

#include <cstddef>
#include <span>

#include "info/sample_matrix.hpp"

namespace sops::support {
class Executor;
}  // namespace sops::support

namespace sops::info {

class FrameNeighborCache;

/// How an estimator computes its neighbor counts. Both paths compare the
/// identical squared distances with the identical strict < and therefore
/// produce bitwise-equal estimates; the choice is purely a throughput knob.
/// Read by conditional_mutual_information_ksg (transfer_entropy.hpp);
/// ignored by multi_information_ksg, which has one path.
enum class NeighborSearch {
  /// Per-subspace kd-trees with batched (kSimdWidth queries per descent)
  /// count queries — the default.
  kBlockedTree,
  /// The exhaustive per-pair scan; the reference path.
  kBruteForce,
};

/// Which ψ-argument convention to use for the marginal counts.
enum class KsgConvention {
  /// Standard KSG-1: ψ(c_i + 1), where c_i excludes the sample itself.
  /// This is the convention of Kraskov et al. (2004) and the default.
  kStandard,
  /// The paper's Eq. (18)/(20) literally: ψ(c_i), with c_i floored at 1
  /// because ψ(0) diverges (c_i = 0 occurs when no other sample is strictly
  /// closer in marginal i than the k-th joint neighbor).
  kPaperLiteral,
};

/// Options of the estimator.
struct KsgOptions {
  std::size_t k = 4;  ///< neighbor order (paper §6 uses 4; §5.3 mentions 5)
  KsgConvention convention = KsgConvention::kStandard;
  std::size_t threads = 0;  ///< 0 = hardware concurrency
  /// When set, both pair passes dispatch their row bands on this executor
  /// (a persistent pool the caller reuses across frames) and `threads` is
  /// ignored; when null, a transient TaskPool of `threads` width runs the
  /// call. Never affects the estimate (see multi_information_ksg).
  const support::Executor* executor = nullptr;
  /// Ignored by multi_information_ksg; kept for callers that still set it.
  NeighborSearch search = NeighborSearch::kBlockedTree;
  /// Ignored by multi_information_ksg, which builds no kd-trees; kept for
  /// callers that still set it.
  FrameNeighborCache* cache = nullptr;
};

/// Estimates the multi-information between the observer blocks of `samples`,
/// in bits (the digamma formula is evaluated in nats and converted).
///
/// Requirements: at least k+1 samples, at least two blocks, blocks valid for
/// the sample dimension, every coordinate finite (a NaN or ±inf throws
/// PreconditionError).
///
/// Complexity O(m² · D) with D = total dimension, in two passes over the
/// m(m−1)/2 unordered sample pairs, each pair visited once per pass. Pass 1
/// takes the pair's joint squared distance (the max over blocks of
/// block_dist_sq, stopping early once it can enter neither row's k
/// smallest) into a bounded top-k for both rows; ε_s is the square root of
/// row s's k-th value. Pass 2 recomputes the block distances and adds the
/// strict-< marginal counts to both ends of the pair. Scratch: a
/// column-major copy of the matrix, plus m·k top-k slots and m·n counters
/// per band.
///
/// Parallel over row bands holding equal shares of the pairs; each band
/// keeps its own top-k lists and marginal counters, merged afterwards. A
/// top-k merge is a set operation, the counts are exact integers (held in
/// doubles, exact below 2^53) that sum to the same value in any order, and
/// the ψ terms are summed per sample in block order and then in sample
/// order, so the result is bitwise independent of the thread count and the
/// executor.
///
/// Exact ties in the joint metric (possible with duplicated samples) need
/// no tie-break: ε depends only on the k-th smallest distance value.
[[nodiscard]] double multi_information_ksg(const SampleMatrix& samples,
                                           std::span<const Block> blocks,
                                           const KsgOptions& options = {});

/// Convenience overload: n equal-width blocks of `block_dim` coordinates.
[[nodiscard]] double multi_information_ksg(const SampleMatrix& samples,
                                           std::size_t block_dim,
                                           const KsgOptions& options = {});

}  // namespace sops::info
