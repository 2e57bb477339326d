#include "info/ksg.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <optional>
#include <vector>

#include "info/digamma.hpp"
#include "support/executor.hpp"
#include "support/parallel_for.hpp"

namespace sops::info {
namespace {

// block_dist_sq's expression on raw rows, inlined into the pair loops.
// Symmetric in (a, b) bit for bit: a − b is exactly −(b − a).
inline double block_sq(const double* a, const double* b,
                       const Block& block) noexcept {
  double sum = 0.0;
  for (std::size_t d = block.offset; d < block.offset + block.dim; ++d) {
    const double diff = a[d] - b[d];
    sum += diff * diff;
  }
  return sum;
}

// Inserts v into `top`, the ascending k smallest values seen so far (padded
// with +inf); a no-op unless v beats the current k-th.
inline void push_top_k(double* top, std::size_t k, double v) noexcept {
  if (!(v < top[k - 1])) return;
  std::size_t slot = k - 1;
  while (slot > 0 && top[slot - 1] > v) {
    top[slot] = top[slot - 1];
    --slot;
  }
  top[slot] = v;
}

// Row bands [bounds[c], bounds[c+1]) holding about equal shares of the
// unordered pairs (i, j > i); row i owns its m−1−i pairs. Depends only on
// (m, bands), and the estimate does not depend on the bands at all.
std::vector<std::size_t> pair_bands(std::size_t m, std::size_t bands) {
  const std::size_t total = m * (m - 1) / 2;
  std::vector<std::size_t> bounds(bands + 1, m);
  bounds[0] = 0;
  std::size_t c = 1;
  std::size_t done = 0;
  for (std::size_t i = 0; i < m && c < bands; ++i) {
    done += m - 1 - i;
    while (c < bands && done * bands >= total * c) bounds[c++] = i + 1;
  }
  return bounds;
}

}  // namespace

double multi_information_ksg(const SampleMatrix& samples,
                             std::span<const Block> blocks,
                             const KsgOptions& options) {
  const std::size_t m = samples.count();
  const std::size_t n = blocks.size();
  const std::size_t k = options.k;
  support::expect(k >= 1, "multi_information_ksg: k must be >= 1");
  support::expect(m >= k + 1,
                  "multi_information_ksg: need at least k+1 samples");
  support::expect(n >= 2, "multi_information_ksg: need at least two blocks");
  validate_blocks(blocks, samples.dim());
  validate_finite(samples, Block{0, samples.dim()});

  std::optional<support::TaskPool> own_pool;
  if (options.executor == nullptr) own_pool.emplace(options.threads);
  const support::Executor& executor =
      options.executor != nullptr ? *options.executor : own_pool->executor();
  const std::vector<std::size_t> bounds =
      pair_bands(m, std::min(executor.width(), m));
  const std::size_t bands = bounds.size() - 1;
  const std::size_t dim = samples.dim();
  const double* rows = samples.flat().data();

  // Pass 1: each unordered pair's joint squared distance (max over blocks
  // of block_dist_sq) enters both rows' top-k. A pair stops early once its
  // running max reaches both rows' current k-th: it can enter neither.
  // Each band keeps its own top-k per row; the k-th smallest of their union
  // is the k-th of the full row, whichever band saw which pair.
  std::vector<double> top(bands * m * k,
                          std::numeric_limits<double>::infinity());
  support::parallel_for_shards(
      executor, std::span<const std::size_t>(bounds),
      [&](std::size_t band, std::size_t begin, std::size_t end) {
        double* band_top = top.data() + band * m * k;
        for (std::size_t i = begin; i < end; ++i) {
          const double* ri = rows + i * dim;
          double* top_i = band_top + i * k;
          for (std::size_t j = i + 1; j < m; ++j) {
            const double* rj = rows + j * dim;
            double* top_j = band_top + j * k;
            const double bound = std::max(top_i[k - 1], top_j[k - 1]);
            double max_sq = 0.0;
            bool entered = true;
            for (const Block& block : blocks) {
              max_sq = std::max(max_sq, block_sq(ri, rj, block));
              if (!(max_sq < bound)) {
                entered = false;
                break;
              }
            }
            if (entered) {
              push_top_k(top_i, k, max_sq);
              push_top_k(top_j, k, max_sq);
            }
          }
        }
      });

  // ε_s is the k-th joint neighbor distance; sqrt is monotone, so the root
  // of the k-th squared distance is the k-th of the roots.
  std::vector<double> eps_sq(m);
  for (std::size_t s = 0; s < m; ++s) {
    double* merged = top.data() + s * k;
    for (std::size_t band = 1; band < bands; ++band) {
      const double* other = top.data() + (band * m + s) * k;
      for (std::size_t r = 0; r < k; ++r) push_top_k(merged, k, other[r]);
    }
    const double eps = std::sqrt(merged[k - 1]);
    eps_sq[s] = eps * eps;
  }

  // Pass 2: c_i — samples strictly closer than ε in marginal i — counted
  // for both ends of each pair into the band's own counters. Per row i and
  // block, one loop over j > i takes the block distances with
  // block_dist_sq's expression (a column-major copy makes each coordinate
  // contiguous in j) and adds j's end as integer-valued doubles (exact
  // below 2^53), so both loops vectorize; i's end is one sum.
  std::vector<double> columns(dim * m);
  for (std::size_t s = 0; s < m; ++s) {
    for (std::size_t d = 0; d < dim; ++d) columns[d * m + s] = rows[s * dim + d];
  }
  std::vector<double> hits(bands * n * m, 0.0);
  support::parallel_for_shards(
      executor, std::span<const std::size_t>(bounds),
      [&](std::size_t band, std::size_t begin, std::size_t end) {
        std::vector<double> dist(m);
        for (std::size_t i = begin; i < end; ++i) {
          const double* ri = rows + i * dim;
          for (std::size_t b = 0; b < n; ++b) {
            const Block& block = blocks[b];
            for (std::size_t d = block.offset; d < block.offset + block.dim;
                 ++d) {
              const double* column = columns.data() + d * m;
              const double x = ri[d];
              const bool first = d == block.offset;
              for (std::size_t j = i + 1; j < m; ++j) {
                const double diff = x - column[j];
                dist[j] = (first ? 0.0 : dist[j]) + diff * diff;
              }
            }
            double* block_hits = hits.data() + (band * n + b) * m;
            for (std::size_t j = i + 1; j < m; ++j) {
              block_hits[j] += dist[j] < eps_sq[j] ? 1.0 : 0.0;
            }
            const double eps_i = eps_sq[i];
            std::size_t c = 0;
            for (std::size_t j = i + 1; j < m; ++j) {
              c += dist[j] < eps_i ? 1 : 0;
            }
            block_hits[i] += static_cast<double>(c);
          }
        }
      });

  const auto psi_arg = [&options](std::size_t c) noexcept {
    return options.convention == KsgConvention::kStandard
               ? c + 1
               : std::max<std::size_t>(c, 1);
  };

  // Σ_i ψ per sample in block order, then the mean in sample order.
  double mean_psi = 0.0;
  for (std::size_t s = 0; s < m; ++s) {
    double psi_sum = 0.0;
    for (std::size_t b = 0; b < n; ++b) {
      double c = 0.0;
      for (std::size_t band = 0; band < bands; ++band) {
        c += hits[(band * n + b) * m + s];
      }
      psi_sum += digamma_int(psi_arg(static_cast<std::size_t>(c)));
    }
    mean_psi += psi_sum;
  }
  mean_psi /= static_cast<double>(m);

  const double nats = digamma_int(k) +
                      (static_cast<double>(n) - 1.0) * digamma_int(m) - mean_psi;
  return nats * std::numbers::log2e;  // report bits, like the paper's figures
}

double multi_information_ksg(const SampleMatrix& samples, std::size_t block_dim,
                             const KsgOptions& options) {
  support::expect(block_dim > 0 && samples.dim() % block_dim == 0,
                  "multi_information_ksg: dim not a multiple of block_dim");
  const auto blocks = uniform_blocks(samples.dim() / block_dim, block_dim);
  return multi_information_ksg(samples, blocks, options);
}

}  // namespace sops::info
