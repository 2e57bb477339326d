// Kernel-density multi-information — the second §5.3 comparison baseline.
//
// Densities are estimated with a Gaussian product kernel at every sample
// (leave-one-out), and the multi-information is the resubstitution average
//
//   Î = (1/m) Σ_s log₂ [ p̂(w_s) / Π_i p̂_i(w_s,i) ].
//
// The paper found this approach "multiple orders of magnitudes slower" with
// larger variance in high dimensions than KSG; the ablation bench
// demonstrates both effects. Complexity O(m² · D) with large constants.
#pragma once

#include <cstddef>
#include <span>

#include "info/sample_matrix.hpp"

namespace sops::support {
class Executor;
}  // namespace sops::support

namespace sops::info {

/// KDE estimator options.
struct KdeOptions {
  /// Kernel bandwidth multiplier on the Silverman-style per-block scale
  /// h = scale · σ̂ · m^{−1/(d+4)}.
  double bandwidth_scale = 1.0;
  std::size_t threads = 0;
  /// When set, density evaluations dispatch their sample chunks on this
  /// executor (a persistent pool the caller reuses across calls) and
  /// `threads` is ignored; when null, a transient TaskPool of `threads`
  /// width runs the call — mirroring KsgOptions::executor. Never affects
  /// the estimate.
  const support::Executor* executor = nullptr;
};

/// Leave-one-out log₂ density estimate of block coordinates at each sample;
/// exposed for tests. The block must be non-empty, in range and finite in
/// every sample (PreconditionError otherwise).
[[nodiscard]] std::vector<double> kde_log2_density(const SampleMatrix& samples,
                                                   const Block& block,
                                                   const KdeOptions& options = {});

/// KDE multi-information (bits) between the observer blocks.
[[nodiscard]] double multi_information_kde(const SampleMatrix& samples,
                                           std::span<const Block> blocks,
                                           const KdeOptions& options = {});

}  // namespace sops::info
