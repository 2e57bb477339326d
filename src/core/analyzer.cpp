#include "core/analyzer.hpp"

#include <algorithm>
#include <optional>

#include "info/neighbor_cache.hpp"
#include "support/executor.hpp"

namespace sops::core {

double AnalysisResult::peak_delta_mi() const noexcept {
  if (points.empty()) return 0.0;
  double peak = points.front().multi_information;
  for (const TimePoint& p : points) {
    peak = std::max(peak, p.multi_information);
  }
  return peak - points.front().multi_information;
}

std::vector<double> AnalysisResult::steps() const {
  std::vector<double> out;
  out.reserve(points.size());
  for (const TimePoint& p : points) out.push_back(static_cast<double>(p.step));
  return out;
}

std::vector<double> AnalysisResult::mi_values() const {
  std::vector<double> out;
  out.reserve(points.size());
  for (const TimePoint& p : points) out.push_back(p.multi_information);
  return out;
}

namespace {

/// One frame's measurement.
struct FrameAnalysis {
  TimePoint point;
  std::size_t observer_count = 0;
};

// Analyzes a single recorded frame. All inner loops dispatch on
// `executor`; `options.threads` is ignored here. Deterministic in
// (frame, types, step, frame_index, coarse, options) — the executor's
// width never affects any estimate.
FrameAnalysis analyze_frame(geom::FrameView frame,
                            const std::vector<sim::TypeId>& types,
                            std::size_t step, std::size_t frame_index,
                            bool coarse, const AnalysisOptions& options,
                            const support::Executor& executor) {
  // The inner stages never fork on their own (threads = 1); every loop —
  // the alignment rows, the estimator's pair passes — dispatches on the
  // caller's executor. Neither affects results.
  align::EnsembleOptions ensemble_options = options.ensemble;
  ensemble_options.threads = 1;
  ensemble_options.executor = &executor;
  info::KsgOptions ksg = options.ksg;
  ksg.threads = 1;
  ksg.executor = &executor;

  align::AlignedEnsemble aligned =
      align::align_ensemble(frame, types, ensemble_options);
  if (coarse) {
    // Seeded per frame so frames are independent of evaluation order.
    rng::Xoshiro256 engine = rng::make_stream(
        options.kmeans_seed, static_cast<std::uint64_t>(frame_index));
    aligned =
        align::coarse_grain_ensemble(aligned, options.kmeans_per_type, engine);
  }

  // The entropy curves share one subspace-tree cache across this frame's
  // calls (each resolves its trees serially at entry, per the cache's
  // single-writer contract). The KSG multi-information builds no trees.
  std::optional<info::FrameNeighborCache> cache;
  if (options.compute_entropies && options.reuse_neighbor_cache) {
    cache.emplace(aligned.samples);
  }
  info::FrameNeighborCache* entropy_cache = cache ? &*cache : nullptr;

  FrameAnalysis out;
  out.observer_count = aligned.observer_count();
  TimePoint& point = out.point;
  point.step = step;
  point.multi_information =
      info::multi_information_ksg(aligned.samples, aligned.blocks, ksg);

  if (options.compute_entropies) {
    // Same lent executor as the KSG passes: the entropy curves ride the
    // persistent pool instead of running serially (or forking).
    point.joint_entropy =
        info::entropy_kl(aligned.samples, ksg.k, executor, entropy_cache);
    point.marginal_entropy_sum = 0.0;
    for (const info::Block& block : aligned.blocks) {
      point.marginal_entropy_sum += info::entropy_kl_block(
          aligned.samples, block, ksg.k, executor, entropy_cache);
    }
  }
  if (options.compute_decomposition) {
    sim::TypeId max_type = 0;
    for (const sim::TypeId t : aligned.block_types) {
      max_type = std::max(max_type, t);
    }
    const info::ObserverGrouping grouping = info::group_blocks_by_type(
        aligned.block_types, static_cast<std::size_t>(max_type) + 1);
    if (grouping.size() >= 2) {
      point.decomposition = info::decompose_multi_information(
          aligned.samples, aligned.blocks, grouping, ksg);
    } else {
      point.decomposition.total = point.multi_information;
      point.decomposition.between_groups = 0.0;
      point.decomposition.within_group = {point.multi_information};
    }
  }
  return out;
}

}  // namespace

AnalysisResult analyze_self_organization(const EnsembleSeries& series,
                                         const AnalysisOptions& options,
                                         const support::CancelToken* cancel) {
  support::expect(series.frame_count() >= 1, "analyze: empty series");
  support::expect(series.sample_count() >= options.ksg.k + 1,
                  "analyze: need more samples than the estimator's k");
  support::expect(series.particle_count() >= 2,
                  "analyze: need at least two particles");

  const std::size_t frame_count = series.frame_count();
  const bool coarse =
      series.particle_count() > options.coarse_grain_above;

  AnalysisResult result;
  result.coarse_grained = coarse;
  result.points.resize(frame_count);

  // One pool for the whole analysis: frames run in order, and every worker
  // serves the current frame's inner loops (the alignment rows and the
  // estimators' pair passes).
  support::TaskPool pool(options.threads);
  for (std::size_t f = 0; f < frame_count; ++f) {
    support::CancelToken::check(cancel, "analysis cancelled");
    FrameAnalysis frame =
        analyze_frame(series.frames[f], series.types, series.frame_steps[f], f,
                      coarse, options, pool.executor());
    if (f == 0) result.observer_count = frame.observer_count;
    result.points[f] = std::move(frame.point);
  }
  return result;
}

AnalysisResult measure_experiment(const ExperimentConfig& config,
                                  const AnalysisOptions& options) {
  const EnsembleSeries series = run_experiment(config);
  return analyze_self_organization(series, options);
}

}  // namespace sops::core
