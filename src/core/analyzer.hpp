// The paper's measurement pipeline: ensemble → shape space → observer
// multi-information over time, with optional entropy curves, per-type
// decomposition (Eq. 5), and the §5.3.1 k-means coarse-graining for large
// collectives.
//
// Self-organization, by the paper's definition (§3.1), is an *increase* of
// I(W₁⁽ᵗ⁾,…,W_n⁽ᵗ⁾) over the run; `AnalysisResult::delta_mi()` is that
// headline statistic and `self_organizing()` thresholds it.
#pragma once

#include <cstdint>
#include <vector>

#include "align/ensemble.hpp"
#include "core/experiment.hpp"
#include "info/decomposition.hpp"
#include "info/entropy.hpp"
#include "info/ksg.hpp"

namespace sops::core {

/// What to compute per recorded time step.
struct AnalysisOptions {
  info::KsgOptions ksg{};            ///< estimator settings (k = 4 default)
  align::EnsembleOptions ensemble{}; ///< alignment settings
  /// Collectives with more particles than this are coarse-grained to
  /// per-type k-means mean observers (paper §6 uses 60).
  std::size_t coarse_grain_above = 60;
  std::size_t kmeans_per_type = 4;   ///< clusters per type when coarse-graining
  std::uint64_t kmeans_seed = 0x5eed;
  bool compute_entropies = false;     ///< joint + marginal KL entropy curves
  bool compute_decomposition = false; ///< per-type Eq. 5 decomposition
  std::size_t threads = 0;            ///< pool width incl. caller (0 = auto)
  /// Build one FrameNeighborCache per analyzed frame and share its subspace
  /// kd-trees across that frame's entropy curves (the joint and per-block KL
  /// entropies; only built when `compute_entropies` is set). Purely a
  /// throughput knob: every estimate is bitwise-identical either way.
  bool reuse_neighbor_cache = true;
};

/// Measurements at one recorded step.
struct TimePoint {
  std::size_t step = 0;
  double multi_information = 0.0;      ///< I(W₁,…,W_n) in bits
  double joint_entropy = 0.0;          ///< h(W) (bits), if requested
  double marginal_entropy_sum = 0.0;   ///< Σ h(W_i) (bits), if requested
  info::Decomposition decomposition;   ///< Eq. 5 terms, if requested
};

/// Full analysis output.
struct AnalysisResult {
  std::vector<TimePoint> points;
  std::size_t observer_count = 0;  ///< n (or l·k when coarse-grained)
  bool coarse_grained = false;

  /// ΔI between the last and first recorded step (the Fig. 8 statistic).
  [[nodiscard]] double delta_mi() const noexcept {
    if (points.size() < 2) return 0.0;
    return points.back().multi_information - points.front().multi_information;
  }
  /// Largest I over the run minus the initial I.
  [[nodiscard]] double peak_delta_mi() const noexcept;
  /// The paper's verdict: ΔI above `threshold` bits counts as
  /// self-organization.
  [[nodiscard]] bool self_organizing(double threshold = 0.5) const noexcept {
    return delta_mi() > threshold;
  }

  /// The multi-information curve as (steps, values) for charting.
  [[nodiscard]] std::vector<double> steps() const;
  [[nodiscard]] std::vector<double> mi_values() const;
};

/// Runs the full measurement pipeline on a recorded ensemble.
///
/// Per frame: align to shape space (centroid + ICP + same-type permutation),
/// optionally coarse-grain (seeded by the frame index, so no frame depends
/// on another), then estimate. One TaskPool of `options.threads` width
/// serves the whole analysis: frames run in order, each on the whole pool
/// (its alignment rows, then the estimator's passes), so no worker idles
/// while another finishes a whole frame. The pool's width never affects
/// any estimate.
///
/// `cancel` (not owned; may be null) is polled before each frame: a raised
/// token throws sops::CancelledError after the in-flight frame, so a job
/// cancelled during its analysis stops at the next frame boundary.
[[nodiscard]] AnalysisResult analyze_self_organization(
    const EnsembleSeries& series, const AnalysisOptions& options = {},
    const support::CancelToken* cancel = nullptr);

/// Convenience: run + analyze in one call.
[[nodiscard]] AnalysisResult measure_experiment(const ExperimentConfig& config,
                                                const AnalysisOptions& options = {});

}  // namespace sops::core
