// Transfer entropy and KSG conditional mutual information — the paper's
// §7.3 future work ("the methods developed in [24] promise to furnish tools
// to investigate the information dynamics between individual particles over
// time").
//
// Transfer entropy from a source process X to a target process Y is
//
//   TE(X→Y) = I(Y⁺ ; X | Y) ,
//
// the information the source's present adds about the target's next state
// beyond the target's own present. We estimate it with the KSG-style
// conditional-MI estimator (Frenzel–Pompe):
//
//   Î = ψ(k) − ⟨ ψ(n_{y⁺y}+1) + ψ(n_{xy}+1) − ψ(n_y+1) ⟩ ,
//
// with ε_s the k-th neighbor distance in the joint (y⁺, x, y) max-block
// space and the n_· marginal counts within ε_s.
//
// Note the paper's own caveat (§5.2): time-resolved statistics need
// particle identity across time, so these estimators consume RAW
// trajectories — never the permutation-reduced shape-space ensembles.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "geom/vec2.hpp"
#include "info/ksg.hpp"
#include "info/sample_matrix.hpp"

namespace sops::support {
class Executor;
}  // namespace sops::support

namespace sops::info {

/// Options for the conditional estimators.
struct TransferEntropyOptions {
  std::size_t k = 4;        ///< neighbor order
  std::size_t lag = 1;      ///< time offset between "present" and "next"
  std::size_t threads = 0;  ///< 0 = hardware concurrency
  /// When set, the estimator's parallel loops (per-sample queries; the TE
  /// matrix's pair fan-out) dispatch on this executor and `threads` is
  /// ignored — mirroring KsgOptions::executor, so batch analyses reuse one
  /// persistent pool instead of starting workers per call. Never affects
  /// the estimate.
  const support::Executor* executor = nullptr;
  /// Neighbor-search implementation of conditional_mutual_information_ksg
  /// and the transfer entropies built on it: per-call subspace kd-trees
  /// (the default) or the exhaustive reference scan. Never affects the
  /// estimate.
  NeighborSearch search = NeighborSearch::kBlockedTree;
};

/// KSG/Frenzel–Pompe conditional mutual information I(A ; B | C) in bits.
/// `samples` rows are joint draws; the three blocks partition the columns,
/// and every coordinate must be finite (PreconditionError otherwise). The
/// metric is the max over the three block L2 norms (consistent with the
/// unconditional estimator). Reads `k`, `threads`, `executor` and `search`
/// from the options; `lag` is unused. Identical estimate for any executor
/// width.
[[nodiscard]] double conditional_mutual_information_ksg(
    const SampleMatrix& samples, const Block& a, const Block& b,
    const Block& c, const TransferEntropyOptions& options = {});

/// Transfer entropy (bits) between two scalar-block time series.
///
/// `source[t]` and `target[t]` are the processes' values at step t, each of
/// width `dim` doubles (a particle contributes dim = 2). Embedding order is
/// one (the paper's Markov dynamics, Eq. 6, are order one by construction).
/// Samples are the T − lag time-adjacent triples (target_{t+lag},
/// source_t, target_t); stationarity over the window is assumed, matching
/// how local information transfer is applied to such systems [24].
[[nodiscard]] double transfer_entropy(
    std::span<const double> source, std::span<const double> target,
    std::size_t dim, const TransferEntropyOptions& options = {});

/// Convenience for particle trajectories: TE(particle a → particle b) from
/// per-frame positions. `frames[t]` is the full configuration at recorded
/// step t (identity-preserving order, i.e. straight from sim::Trajectory).
[[nodiscard]] double particle_transfer_entropy(
    std::span<const std::vector<geom::Vec2>> frames, std::size_t source_index,
    std::size_t target_index, const TransferEntropyOptions& options = {});

/// Pairwise TE matrix over all particles of a trajectory: entry (a, b) is
/// TE(a → b); the diagonal is zero. O(n²) estimator runs — intended for
/// small collectives.
[[nodiscard]] std::vector<std::vector<double>> transfer_entropy_matrix(
    std::span<const std::vector<geom::Vec2>> frames,
    const TransferEntropyOptions& options = {});

/// Active information storage (bits): AIS(X) = I(X_{t+lag} ; X_t), the
/// information a process's present carries about its own next state — the
/// storage counterpart of transfer in the Lizier framework [24]. Estimated
/// as a 2-block KSG mutual information over time-adjacent pairs.
[[nodiscard]] double active_information_storage(
    std::span<const double> series, std::size_t dim,
    const TransferEntropyOptions& options = {});

/// AIS of one particle's positional process.
[[nodiscard]] double particle_active_information_storage(
    std::span<const std::vector<geom::Vec2>> frames, std::size_t index,
    const TransferEntropyOptions& options = {});

}  // namespace sops::info
