#include "info/transfer_entropy.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>
#include <optional>

#include "info/digamma.hpp"
#include "info/ksg.hpp"
#include "info/neighbor_cache.hpp"
#include "support/parallel_for.hpp"
#include "support/simd.hpp"

namespace sops::info {
namespace {

// Max of the three block distances between rows s and j.
double joint_dist(const SampleMatrix& samples, std::size_t s, std::size_t j,
                  const Block& a, const Block& b, const Block& c) {
  const double d_sq = std::max({block_dist_sq(samples, s, j, a),
                                block_dist_sq(samples, s, j, b),
                                block_dist_sq(samples, s, j, c)});
  return std::sqrt(d_sq);
}

}  // namespace

// Subspace kd-trees (kBlockedTree) or exhaustive scans (kBruteForce) for the
// neighbor work — both produce identical bits (same distances, same strict-<
// comparisons; the joint ε is the same order statistic either way).
double conditional_mutual_information_ksg(
    const SampleMatrix& samples, const Block& a, const Block& b,
    const Block& c, const TransferEntropyOptions& options) {
  const std::size_t m = samples.count();
  const std::size_t k = options.k;
  support::expect(k >= 1, "conditional MI: k must be >= 1");
  support::expect(m >= k + 1, "conditional MI: need at least k+1 samples");
  validate_blocks(std::vector<Block>{a, b, c}, samples.dim());
  validate_finite(samples, Block{0, samples.dim()});

  // Tree path: build the four subspace searchers serially up front in a
  // cache local to this call (the parallel chunks only read).
  const bool use_trees = options.search == NeighborSearch::kBlockedTree;
  std::optional<FrameNeighborCache> cache;
  const FrameNeighborCache::SubspaceTree* joint_tree = nullptr;
  const FrameNeighborCache::SubspaceTree* ac_tree = nullptr;
  const FrameNeighborCache::SubspaceTree* bc_tree = nullptr;
  const FrameNeighborCache::SubspaceTree* c_tree = nullptr;
  if (use_trees) {
    cache.emplace(samples);
    const std::array<Block, 3> abc = {a, b, c};
    const std::array<Block, 2> ac = {a, c};
    const std::array<Block, 2> bc = {b, c};
    joint_tree = &cache->tree_for(abc);
    ac_tree = &cache->tree_for(ac);
    bc_tree = &cache->tree_for(bc);
    c_tree = &cache->tree_for({&c, 1});
  }

  std::vector<double> per_sample(m, 0.0);
  const auto chunk = [&](std::size_t begin, std::size_t end) {
    if (use_trees) {
      // ε per sample via the joint tree: the k-th smallest squared
      // block-max distance is the square of the brute path's k-th smallest
      // distance (sqrt is monotone), so the ε doubles agree bitwise.
      std::vector<double> eps(end - begin);
      for (std::size_t s = begin; s < end; ++s) {
        eps[s - begin] = std::sqrt(joint_tree->tree.kth_block_dist_sq(
            joint_tree->query(s), k, joint_tree->metric, s));
      }
      // Marginal counts in the (a,c), (b,c) and (c) subspaces, strictly
      // within ε (Frenzel–Pompe convention), batched kSimdWidth queries per
      // descent.
      constexpr std::size_t kBatch = support::kSimdWidth;
      static_assert(kBatch <= geom::KdTree::kMaxCountBatch);
      std::vector<std::size_t> n_ac(end - begin);
      std::vector<std::size_t> n_bc(end - begin);
      std::vector<std::size_t> n_c(end - begin);
      std::array<std::size_t, kBatch> skips;
      const std::array<
          std::pair<const FrameNeighborCache::SubspaceTree*, std::size_t*>, 3>
          passes = {{{ac_tree, n_ac.data()},
                     {bc_tree, n_bc.data()},
                     {c_tree, n_c.data()}}};
      for (const auto& [subspace, counts] : passes) {
        for (std::size_t s0 = begin; s0 < end; s0 += kBatch) {
          const std::size_t batch = std::min(kBatch, end - s0);
          for (std::size_t i = 0; i < batch; ++i) skips[i] = s0 + i;
          subspace->tree.count_within_blocks(
              subspace->points.subspan(s0 * subspace->point_dim,
                                       batch * subspace->point_dim),
              std::span<const double>(eps.data() + (s0 - begin), batch),
              subspace->metric,
              std::span<const std::size_t>(skips.data(), batch),
              std::span<std::size_t>(counts + (s0 - begin), batch));
        }
      }
      for (std::size_t s = begin; s < end; ++s) {
        const std::size_t i = s - begin;
        per_sample[s] = digamma_int(n_ac[i] + 1) + digamma_int(n_bc[i] + 1) -
                        digamma_int(n_c[i] + 1);
      }
      return;
    }

    std::vector<double> scratch;
    for (std::size_t s = begin; s < end; ++s) {
      scratch.clear();
      scratch.reserve(m - 1);
      for (std::size_t j = 0; j < m; ++j) {
        if (j != s) scratch.push_back(joint_dist(samples, s, j, a, b, c));
      }
      std::nth_element(scratch.begin(),
                       scratch.begin() + static_cast<std::ptrdiff_t>(k - 1),
                       scratch.end());
      const double eps = scratch[k - 1];
      const double eps_sq = eps * eps;

      // Marginal counts in the (a,c), (b,c) and (c) subspaces, strictly
      // within ε (Frenzel–Pompe convention).
      std::size_t n_ac = 0;
      std::size_t n_bc = 0;
      std::size_t n_c = 0;
      for (std::size_t j = 0; j < m; ++j) {
        if (j == s) continue;
        const double dc = block_dist_sq(samples, s, j, c);
        if (dc >= eps_sq) continue;
        ++n_c;
        if (std::max(dc, block_dist_sq(samples, s, j, a)) < eps_sq) ++n_ac;
        if (std::max(dc, block_dist_sq(samples, s, j, b)) < eps_sq) ++n_bc;
      }
      per_sample[s] = digamma_int(n_ac + 1) + digamma_int(n_bc + 1) -
                      digamma_int(n_c + 1);
    }
  };
  std::optional<support::TaskPool> own_pool;
  if (options.executor == nullptr) own_pool.emplace(options.threads);
  const support::Executor& executor =
      options.executor != nullptr ? *options.executor : own_pool->executor();
  support::parallel_for_chunked(executor, 0, m, chunk);

  double mean_psi = 0.0;
  for (const double v : per_sample) mean_psi += v;
  mean_psi /= static_cast<double>(m);

  return (digamma_int(k) - mean_psi) * std::numbers::log2e;
}

double transfer_entropy(std::span<const double> source,
                        std::span<const double> target, std::size_t dim,
                        const TransferEntropyOptions& options) {
  support::expect(dim >= 1, "transfer_entropy: dim must be >= 1");
  support::expect(source.size() == target.size(),
                  "transfer_entropy: series length mismatch");
  support::expect(source.size() % dim == 0,
                  "transfer_entropy: series not a multiple of dim");
  support::expect(options.lag >= 1, "transfer_entropy: lag must be >= 1");
  const std::size_t steps = source.size() / dim;
  support::expect(steps > options.lag + options.k,
                  "transfer_entropy: series too short for lag and k");

  const std::size_t m = steps - options.lag;
  // Row layout: [ target_{t+lag} | source_t | target_t ].
  SampleMatrix samples(m, 3 * dim);
  for (std::size_t t = 0; t < m; ++t) {
    auto row = samples.row(t);
    for (std::size_t d = 0; d < dim; ++d) {
      row[d] = target[(t + options.lag) * dim + d];
      row[dim + d] = source[t * dim + d];
      row[2 * dim + d] = target[t * dim + d];
    }
  }
  const Block future{0, dim};
  const Block src{dim, dim};
  const Block present{2 * dim, dim};
  return conditional_mutual_information_ksg(samples, future, src, present,
                                            options);
}

namespace {

// Flattens one particle's positions across frames into [x0,y0,x1,y1,…].
std::vector<double> particle_series(
    std::span<const std::vector<geom::Vec2>> frames, std::size_t index) {
  std::vector<double> series;
  series.reserve(frames.size() * 2);
  for (const auto& frame : frames) {
    support::expect(index < frame.size(),
                    "particle_series: index out of range");
    series.push_back(frame[index].x);
    series.push_back(frame[index].y);
  }
  return series;
}

}  // namespace

double particle_transfer_entropy(std::span<const std::vector<geom::Vec2>> frames,
                                 std::size_t source_index,
                                 std::size_t target_index,
                                 const TransferEntropyOptions& options) {
  const std::vector<double> source = particle_series(frames, source_index);
  const std::vector<double> target = particle_series(frames, target_index);
  return transfer_entropy(source, target, 2, options);
}

std::vector<std::vector<double>> transfer_entropy_matrix(
    std::span<const std::vector<geom::Vec2>> frames,
    const TransferEntropyOptions& options) {
  support::expect(!frames.empty(), "transfer_entropy_matrix: no frames");
  const std::size_t n = frames.front().size();

  // Pre-extract all series once.
  std::vector<std::vector<double>> series;
  series.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    series.push_back(particle_series(frames, i));
  }

  std::vector<std::vector<double>> matrix(n, std::vector<double>(n, 0.0));
  // The pair fan-out is the parallel axis; each estimator call stays
  // serial so the lent (or transient) workers are never oversubscribed.
  TransferEntropyOptions inner = options;
  inner.executor = &support::serial_executor();
  std::optional<support::TaskPool> own_pool;
  if (options.executor == nullptr) own_pool.emplace(options.threads);
  const support::Executor& executor =
      options.executor != nullptr ? *options.executor : own_pool->executor();
  support::parallel_for(executor, 0, n * n, [&](std::size_t cell) {
    const std::size_t a = cell / n;
    const std::size_t b = cell % n;
    if (a == b) return;
    matrix[a][b] = transfer_entropy(series[a], series[b], 2, inner);
  });
  return matrix;
}

double active_information_storage(std::span<const double> series,
                                  std::size_t dim,
                                  const TransferEntropyOptions& options) {
  support::expect(dim >= 1, "active_information_storage: dim must be >= 1");
  support::expect(series.size() % dim == 0,
                  "active_information_storage: series not a multiple of dim");
  support::expect(options.lag >= 1,
                  "active_information_storage: lag must be >= 1");
  const std::size_t steps = series.size() / dim;
  support::expect(steps > options.lag + options.k,
                  "active_information_storage: series too short");

  const std::size_t m = steps - options.lag;
  SampleMatrix samples(m, 2 * dim);
  for (std::size_t t = 0; t < m; ++t) {
    auto row = samples.row(t);
    for (std::size_t d = 0; d < dim; ++d) {
      row[d] = series[(t + options.lag) * dim + d];
      row[dim + d] = series[t * dim + d];
    }
  }
  KsgOptions ksg;
  ksg.k = options.k;
  ksg.threads = options.threads;
  ksg.executor = options.executor;
  return multi_information_ksg(samples, dim, ksg);
}

double particle_active_information_storage(
    std::span<const std::vector<geom::Vec2>> frames, std::size_t index,
    const TransferEntropyOptions& options) {
  std::vector<double> series;
  series.reserve(frames.size() * 2);
  for (const auto& frame : frames) {
    support::expect(index < frame.size(),
                    "particle_active_information_storage: index out of range");
    series.push_back(frame[index].x);
    series.push_back(frame[index].y);
  }
  return active_information_storage(series, 2, options);
}

}  // namespace sops::info
