#include "align/ensemble.hpp"

#include <algorithm>
#include <optional>

#include "cluster/kmeans.hpp"
#include "support/parallel_for.hpp"

namespace sops::align {

namespace {

// Shared implementation over one span per sample; both public overloads
// reduce to this row-view form.
AlignedEnsemble align_rows(std::span<const std::span<const geom::Vec2>> configs,
                           const std::vector<sim::TypeId>& types,
                           const EnsembleOptions& options) {
  support::expect(!configs.empty(), "align_ensemble: no samples");
  const std::size_t n = types.size();
  support::expect(n > 0, "align_ensemble: empty collective");
  for (const auto& config : configs) {
    support::expect(config.size() == n, "align_ensemble: sample size mismatch");
    // A diverged sample must fail the frame by name, not hand NaNs to the
    // matcher below.
    support::expect(geom::all_finite(config),
                    "align_ensemble: non-finite coordinate");
  }
  const std::size_t m = configs.size();

  AlignedEnsemble out;
  out.samples = info::SampleMatrix(m, 2 * n);
  out.blocks = info::uniform_blocks(n, 2);
  out.block_types = types;

  // Reference: centered sample 0 (defines observer identity).
  const std::vector<geom::Vec2> reference = geom::centered(configs[0]);
  auto write_row = [&](std::size_t s, const std::vector<geom::Vec2>& points) {
    auto row = out.samples.row(s);
    for (std::size_t i = 0; i < n; ++i) {
      row[2 * i] = points[i].x;
      row[2 * i + 1] = points[i].y;
    }
  };
  write_row(0, reference);
  // One correspondence index per frame, shared read-only by every worker.
  std::optional<IcpReference> icp_reference;
  if (options.rotations) icp_reference.emplace(reference, types);

  const auto align_sample = [&](std::size_t s) {
    std::vector<geom::Vec2> moved = geom::centered(configs[s]);
    if (options.rotations) {
      const IcpResult icp =
          align_icp(moved, types, *icp_reference, options.icp);
      moved = icp.transform.apply(moved);
      // The fitted transform may reintroduce a tiny translation; shape
      // space demands exact centroid-centering, so re-center.
      moved = geom::centered(moved);
    }
    const std::vector<std::size_t> match =
        match_by_type(moved, types, reference, types);
    // Observer j of this sample is the particle matched to reference
    // particle j.
    std::vector<geom::Vec2> permuted(n);
    for (std::size_t i = 0; i < n; ++i) permuted[match[i]] = moved[i];
    write_row(s, permuted);
  };
  std::optional<support::TaskPool> own_pool;
  if (options.executor == nullptr) own_pool.emplace(options.threads);
  const support::Executor& executor =
      options.executor != nullptr ? *options.executor : own_pool->executor();
  support::parallel_for(executor, 1, m, align_sample);

  return out;
}

}  // namespace

AlignedEnsemble align_ensemble(geom::FrameView configs,
                               const std::vector<sim::TypeId>& types,
                               const EnsembleOptions& options) {
  std::vector<std::span<const geom::Vec2>> rows;
  rows.reserve(configs.size());
  for (std::size_t s = 0; s < configs.size(); ++s) rows.push_back(configs[s]);
  return align_rows(rows, types, options);
}

AlignedEnsemble align_ensemble(const std::vector<std::vector<geom::Vec2>>& configs,
                               const std::vector<sim::TypeId>& types,
                               const EnsembleOptions& options) {
  std::vector<std::span<const geom::Vec2>> rows(configs.begin(), configs.end());
  return align_rows(rows, types, options);
}

AlignedEnsemble coarse_grain_ensemble(const AlignedEnsemble& fine,
                                      std::size_t k_per_type,
                                      rng::Xoshiro256& engine) {
  support::expect(k_per_type >= 1, "coarse_grain_ensemble: k must be >= 1");
  const std::size_t m = fine.sample_count();
  const std::size_t n = fine.observer_count();
  support::expect(m >= 1 && n >= 1, "coarse_grain_ensemble: empty ensemble");

  sim::TypeId max_type = 0;
  for (const sim::TypeId t : fine.block_types) max_type = std::max(max_type, t);
  const std::size_t type_count = max_type + 1;

  // Particle indices per type.
  std::vector<std::vector<std::size_t>> members(type_count);
  for (std::size_t i = 0; i < n; ++i) members[fine.block_types[i]].push_back(i);

  auto point_of = [&](std::size_t sample, std::size_t particle) {
    const auto row = fine.samples.row(sample);
    return geom::Vec2{row[2 * particle], row[2 * particle + 1]};
  };

  // Seed clusters on the reference row, per type.
  struct TypeClusters {
    sim::TypeId type;
    std::vector<geom::Vec2> centroids;
  };
  std::vector<TypeClusters> clusters;
  for (std::size_t t = 0; t < type_count; ++t) {
    if (members[t].empty()) continue;
    std::vector<geom::Vec2> points;
    points.reserve(members[t].size());
    for (const std::size_t i : members[t]) points.push_back(point_of(0, i));
    const std::size_t k = std::min(k_per_type, points.size());
    const cluster::KMeansResult result = cluster::kmeans(points, k, engine);
    clusters.push_back({static_cast<sim::TypeId>(t), result.centroids});
  }

  std::size_t total_clusters = 0;
  for (const TypeClusters& tc : clusters) total_clusters += tc.centroids.size();

  AlignedEnsemble out;
  out.samples = info::SampleMatrix(m, 2 * total_clusters);
  out.blocks = info::uniform_blocks(total_clusters, 2);
  out.block_types.reserve(total_clusters);
  for (const TypeClusters& tc : clusters) {
    for (std::size_t c = 0; c < tc.centroids.size(); ++c) {
      out.block_types.push_back(tc.type);
    }
  }

  // Transport: in every row, assign each particle to the nearest reference
  // cluster of its type; the observer value is the cluster's member mean.
  for (std::size_t s = 0; s < m; ++s) {
    auto row = out.samples.row(s);
    std::size_t cursor = 0;
    for (const TypeClusters& tc : clusters) {
      const auto& type_members = members[tc.type];
      const std::size_t k = tc.centroids.size();
      std::vector<geom::Vec2> sums(k);
      std::vector<std::size_t> counts(k, 0);
      geom::Vec2 type_sum{};
      for (const std::size_t i : type_members) {
        const geom::Vec2 p = point_of(s, i);
        type_sum += p;
        std::size_t best = 0;
        double best_d = geom::dist_sq(p, tc.centroids[0]);
        for (std::size_t c = 1; c < k; ++c) {
          const double d = geom::dist_sq(p, tc.centroids[c]);
          if (d < best_d) {
            best_d = d;
            best = c;
          }
        }
        sums[best] += p;
        ++counts[best];
      }
      const geom::Vec2 type_mean =
          type_sum / static_cast<double>(type_members.size());
      for (std::size_t c = 0; c < k; ++c) {
        const geom::Vec2 mean =
            counts[c] > 0 ? sums[c] / static_cast<double>(counts[c]) : type_mean;
        row[cursor++] = mean.x;
        row[cursor++] = mean.y;
      }
    }
  }
  return out;
}

}  // namespace sops::align
