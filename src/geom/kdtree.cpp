#include "geom/kdtree.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <queue>

#include "support/error.hpp"

namespace sops::geom {
namespace {

// Max-heap entry for k-NN search: the heap top is the current worst of the
// best-k candidates, so it can be popped when a closer point arrives.
struct HeapEntry {
  double dist_sq;
  std::size_t index;
  bool operator<(const HeapEntry& o) const noexcept { return dist_sq < o.dist_sq; }
};

// Squared block-max distance between a stored point and a query, bailing out
// as soon as the running max reaches `limit` (the discarded value cannot
// matter: every caller only compares the full max against `limit` with
// strict <, and a partial max already at `limit` pins the full max there
// too). Per-block sums accumulate over ascending dims exactly like
// info::block_dist_sq, so the doubles match the brute-force estimators.
bool block_max_within(const double* p, const double* q,
                      std::span<const DimBlock> blocks,
                      double limit) noexcept {
  double max_sq = 0.0;
  for (const DimBlock& block : blocks) {
    double sum = 0.0;
    for (std::size_t d = block.offset; d < block.offset + block.dim; ++d) {
      const double diff = p[d] - q[d];
      sum += diff * diff;
    }
    if (sum > max_sq) max_sq = sum;
    if (max_sq >= limit) return false;
  }
  return true;
}

}  // namespace

KdTree::KdTree(std::span<const double> points, std::size_t dim)
    : points_(points), dim_(dim), count_(dim == 0 ? 0 : points.size() / dim) {
  support::expect(dim > 0, "KdTree: dimension must be positive");
  support::expect(points.size() % dim == 0,
                  "KdTree: point array size not a multiple of dim");
  order_.resize(count_);
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  if (count_ > 0) {
    nodes_.reserve(2 * count_ / kLeafSize + 2);
    root_ = build(0, count_);
    leaf_points_.resize(count_ * dim_);
    leaf_columns_.resize(count_ * dim_);
    for (std::size_t slot = 0; slot < count_; ++slot) {
      const double* src = point(order_[slot]);
      std::copy(src, src + dim_, leaf_points_.data() + slot * dim_);
      for (std::size_t d = 0; d < dim_; ++d) {
        leaf_columns_[d * count_ + slot] = src[d];
      }
    }
  }
}

double KdTree::dist_sq_to(std::size_t i,
                          std::span<const double> query) const noexcept {
  const double* p = point(i);
  double sum = 0.0;
  for (std::size_t d = 0; d < dim_; ++d) {
    const double diff = p[d] - query[d];
    sum += diff * diff;
  }
  return sum;
}

int KdTree::build(std::size_t begin, std::size_t end) {
  Node node;
  node.begin = begin;
  node.end = end;
  const std::size_t count = end - begin;
  if (count <= kLeafSize) {
    nodes_.push_back(node);
    return static_cast<int>(nodes_.size() - 1);
  }

  // Split on the axis of largest spread at the median point.
  std::size_t best_axis = 0;
  double best_spread = -1.0;
  for (std::size_t d = 0; d < dim_; ++d) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -lo;
    for (std::size_t i = begin; i < end; ++i) {
      const double v = point(order_[i])[d];
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    if (hi - lo > best_spread) {
      best_spread = hi - lo;
      best_axis = d;
    }
  }
  if (best_spread == 0.0) {
    // All points identical along every axis: keep as (possibly large) leaf.
    nodes_.push_back(node);
    return static_cast<int>(nodes_.size() - 1);
  }

  const std::size_t mid = begin + count / 2;
  std::nth_element(order_.begin() + static_cast<std::ptrdiff_t>(begin),
                   order_.begin() + static_cast<std::ptrdiff_t>(mid),
                   order_.begin() + static_cast<std::ptrdiff_t>(end),
                   [this, best_axis](std::size_t a, std::size_t b) {
                     return point(a)[best_axis] < point(b)[best_axis];
                   });
  node.axis = best_axis;
  node.split = point(order_[mid])[best_axis];

  const std::size_t self = nodes_.size();
  nodes_.push_back(node);
  const int left = build(begin, mid);
  const int right = build(mid, end);
  nodes_[self].left = left;
  nodes_[self].right = right;
  return static_cast<int>(self);
}

Neighbor KdTree::nearest(std::span<const double> query, double bound) const {
  support::expect(query.size() == dim_, "KdTree::nearest: wrong query dim");
  support::expect(count_ > 0, "KdTree::nearest: empty tree");
  const double start =
      std::nextafter(bound, std::numeric_limits<double>::infinity());
  // The 2-D case is the ICP correspondence loop (one query per source point
  // per iteration, tens of millions per job) and gets a compile-time-dim
  // instantiation. Same algorithm either way.
  const Neighbor nn = dim_ == 2 ? nearest_fixed<2>(query.data(), start)
                                : nearest_generic(query, start);
  support::expect(nn.index != kNoPoint,
                  "KdTree::nearest: no point within bound (bound below the "
                  "nearest distance, or a non-finite query)");
  return nn;
}

// Allocation-free single-neighbor search on a fixed-size stack. Traversal
// order and the strict-< update are identical to k_nearest(query, 1), so the
// result — including which index wins an exact distance tie — is the same.
template <std::size_t kDim>
Neighbor KdTree::nearest_fixed(const double* query, double start) const {
  double best_d2 = start;
  std::size_t best_slot = kNoPoint;
  std::array<int, kMaxTraversalStack> stack;
  std::size_t top = 0;
  stack[top++] = root_;
  while (top > 0) {
    const int node_id = stack[--top];
    if (node_id < 0) continue;
    const Node& node = nodes_[static_cast<std::size_t>(node_id)];
    if (node.is_leaf()) {
      // Column-major distance evaluation: each chunk computes its points'
      // squared distances as independent lanes (vectorizable — per-point
      // arithmetic is unchanged, d0² + d1² + ... in dim order), then a
      // scalar strict-< scan in slot order picks the winner, so exact ties
      // still resolve to the first-visited point. Leaves normally hold at
      // most kLeafSize points; the degenerate all-identical-spread leaf can
      // be bigger, hence the chunk loop.
      for (std::size_t chunk = node.begin; chunk < node.end;
           chunk += kLeafSize) {
        const std::size_t len = std::min(kLeafSize, node.end - chunk);
        std::array<double, kLeafSize> d2s;
        {
          const double qd = query[0];
          const double* col = leaf_column(0) + chunk;
          for (std::size_t i = 0; i < len; ++i) {
            const double diff = col[i] - qd;
            d2s[i] = diff * diff;
          }
        }
        for (std::size_t d = 1; d < kDim; ++d) {
          const double qd = query[d];
          const double* col = leaf_column(d) + chunk;
          for (std::size_t i = 0; i < len; ++i) {
            const double diff = col[i] - qd;
            d2s[i] += diff * diff;
          }
        }
        for (std::size_t i = 0; i < len; ++i) {
          if (d2s[i] < best_d2) {
            best_d2 = d2s[i];
            best_slot = chunk + i;
          }
        }
      }
      continue;
    }
    const double delta = query[node.axis] - node.split;
    const int near_child = delta < 0.0 ? node.left : node.right;
    const int far_child = delta < 0.0 ? node.right : node.left;
    if (delta * delta < best_d2) stack[top++] = far_child;
    stack[top++] = near_child;
  }
  if (best_slot == kNoPoint) return {kNoPoint, best_d2};
  return {order_[best_slot], best_d2};
}

Neighbor KdTree::nearest_generic(std::span<const double> query,
                                 double start) const {
  double best_d2 = start;
  std::size_t best_idx = kNoPoint;
  std::array<int, kMaxTraversalStack> stack;
  std::size_t top = 0;
  stack[top++] = root_;
  while (top > 0) {
    const int node_id = stack[--top];
    if (node_id < 0) continue;
    const Node& node = nodes_[static_cast<std::size_t>(node_id)];
    if (node.is_leaf()) {
      for (std::size_t i = node.begin; i < node.end; ++i) {
        const std::size_t idx = order_[i];
        const double d2 = dist_sq_to(idx, query);
        if (d2 < best_d2) {
          best_d2 = d2;
          best_idx = idx;
        }
      }
      continue;
    }
    const double delta = query[node.axis] - node.split;
    const int near_child = delta < 0.0 ? node.left : node.right;
    const int far_child = delta < 0.0 ? node.right : node.left;
    if (delta * delta < best_d2) stack[top++] = far_child;
    stack[top++] = near_child;
  }
  return {best_idx, best_d2};
}

std::vector<Neighbor> KdTree::k_nearest(std::span<const double> query,
                                        std::size_t k,
                                        std::size_t skip_index) const {
  support::expect(query.size() == dim_, "KdTree::k_nearest: wrong query dim");
  std::vector<Neighbor> result;
  if (count_ == 0 || k == 0) return result;

  std::priority_queue<HeapEntry> best;  // max-heap of current best k
  auto worst = [&]() noexcept {
    return best.size() < k ? std::numeric_limits<double>::infinity()
                           : best.top().dist_sq;
  };

  // Iterative traversal with an explicit stack; visit the near child first
  // and prune the far child against the current worst candidate.
  std::vector<int> stack;
  stack.push_back(root_);
  while (!stack.empty()) {
    const int node_id = stack.back();
    stack.pop_back();
    if (node_id < 0) continue;
    const Node& node = nodes_[static_cast<std::size_t>(node_id)];
    if (node.is_leaf()) {
      for (std::size_t i = node.begin; i < node.end; ++i) {
        const std::size_t idx = order_[i];
        if (idx == skip_index) continue;
        const double d2 = dist_sq_to(idx, query);
        if (d2 < worst()) {
          best.push({d2, idx});
          if (best.size() > k) best.pop();
        }
      }
      continue;
    }
    const double delta = query[node.axis] - node.split;
    const int near_child = delta < 0.0 ? node.left : node.right;
    const int far_child = delta < 0.0 ? node.right : node.left;
    if (delta * delta < worst()) stack.push_back(far_child);
    stack.push_back(near_child);
  }

  result.resize(best.size());
  for (std::size_t i = result.size(); i-- > 0;) {
    result[i] = {best.top().index, best.top().dist_sq};
    best.pop();
  }
  return result;
}

double KdTree::kth_block_dist_sq(std::span<const double> query, std::size_t k,
                                 std::span<const DimBlock> blocks,
                                 std::size_t skip_index) const {
  support::expect(query.size() == dim_,
                  "KdTree::kth_block_dist_sq: wrong query dim");
  support::expect(k >= 1, "KdTree::kth_block_dist_sq: k must be positive");
  const std::size_t available = count_ - (skip_index < count_ ? 1 : 0);
  support::expect(available >= k,
                  "KdTree::kth_block_dist_sq: fewer than k points");

  // Bounded max-heap of the best-k squared distances; the heap top is the
  // current k-th candidate. The returned value is an order statistic of the
  // full distance multiset, so it is independent of traversal order:
  // a point skipped because its (partial) distance reached the current worst
  // could at best tie the k-th value, and a subtree pruned because the
  // split-axis delta² reached the worst only holds such points.
  std::array<double, 64> inline_heap;
  std::vector<double> spill_heap;
  std::span<double> heap;
  if (k <= inline_heap.size()) {
    heap = std::span<double>(inline_heap.data(), k);
  } else {
    spill_heap.resize(k);
    heap = std::span<double>(spill_heap);
  }
  std::size_t heap_size = 0;
  const auto worst = [&]() noexcept {
    return heap_size < k ? std::numeric_limits<double>::infinity() : heap[0];
  };

  std::array<int, kMaxTraversalStack> stack;
  std::size_t top = 0;
  stack[top++] = root_;
  while (top > 0) {
    const int node_id = stack[--top];
    if (node_id < 0) continue;
    const Node& node = nodes_[static_cast<std::size_t>(node_id)];
    if (node.is_leaf()) {
      for (std::size_t i = node.begin; i < node.end; ++i) {
        if (order_[i] == skip_index) continue;
        const double* p = leaf_point(i);
        const double limit = worst();
        double max_sq = 0.0;
        bool within = true;
        for (const DimBlock& block : blocks) {
          double sum = 0.0;
          for (std::size_t d = block.offset; d < block.offset + block.dim;
               ++d) {
            const double diff = p[d] - query[d];
            sum += diff * diff;
          }
          if (sum > max_sq) max_sq = sum;
          if (max_sq >= limit) {
            within = false;
            break;
          }
        }
        if (!within) continue;
        if (heap_size == k) {
          std::pop_heap(heap.begin(), heap.begin() + static_cast<std::ptrdiff_t>(heap_size));
          --heap_size;
        }
        heap[heap_size++] = max_sq;
        std::push_heap(heap.begin(), heap.begin() + static_cast<std::ptrdiff_t>(heap_size));
      }
      continue;
    }
    const double delta = query[node.axis] - node.split;
    const int near_child = delta < 0.0 ? node.left : node.right;
    const int far_child = delta < 0.0 ? node.right : node.left;
    if (delta * delta < worst()) stack[top++] = far_child;
    stack[top++] = near_child;
  }
  support::expect(heap_size == k, "KdTree::kth_block_dist_sq: internal error");
  return heap[0];
}

std::size_t KdTree::count_within_blocks(std::span<const double> query,
                                        double radius,
                                        std::span<const DimBlock> blocks,
                                        std::size_t skip_index) const {
  std::size_t count = 0;
  const std::array<std::size_t, 1> skips = {skip_index};
  this->count_within_blocks(query, std::span<const double>(&radius, 1), blocks,
                            skips, std::span<std::size_t>(&count, 1));
  return count;
}

void KdTree::count_within_blocks(std::span<const double> queries,
                                 std::span<const double> radii,
                                 std::span<const DimBlock> blocks,
                                 std::span<const std::size_t> skips,
                                 std::span<std::size_t> counts) const {
  const std::size_t batch = radii.size();
  support::expect(batch >= 1 && batch <= kMaxCountBatch,
                  "KdTree::count_within_blocks: bad batch size");
  support::expect(queries.size() == batch * dim_,
                  "KdTree::count_within_blocks: wrong queries size");
  support::expect(skips.size() == batch && counts.size() == batch,
                  "KdTree::count_within_blocks: mismatched batch spans");

  std::array<double, kMaxCountBatch> radius_sq;
  std::uint32_t live = 0;
  for (std::size_t b = 0; b < batch; ++b) {
    counts[b] = 0;
    radius_sq[b] = radii[b] * radii[b];
    if (radii[b] > 0.0) live |= std::uint32_t{1} << b;
  }
  if (count_ == 0 || live == 0) return;

  // One descent serves the whole batch: each stack frame carries the set of
  // queries still interested in that subtree, and queries drop out per-node
  // via the same delta² >= radius² pruning the single-query path applies.
  struct Frame {
    int node;
    std::uint32_t mask;
  };
  std::array<Frame, kMaxTraversalStack> stack;
  std::size_t top = 0;
  stack[top++] = {root_, live};
  while (top > 0) {
    const Frame frame = stack[--top];
    if (frame.node < 0) continue;
    const Node& node = nodes_[static_cast<std::size_t>(frame.node)];
    if (node.is_leaf()) {
      for (std::size_t i = node.begin; i < node.end; ++i) {
        const std::size_t idx = order_[i];
        const double* p = leaf_point(i);
        for (std::uint32_t rest = frame.mask; rest != 0; rest &= rest - 1) {
          const auto b = static_cast<std::size_t>(
              std::countr_zero(rest));
          if (idx == skips[b]) continue;
          if (block_max_within(p, queries.data() + b * dim_, blocks,
                               radius_sq[b])) {
            ++counts[b];
          }
        }
      }
      continue;
    }
    std::uint32_t left_mask = 0;
    std::uint32_t right_mask = 0;
    for (std::uint32_t rest = frame.mask; rest != 0; rest &= rest - 1) {
      const auto b = static_cast<std::size_t>(std::countr_zero(rest));
      const std::uint32_t bit = std::uint32_t{1} << b;
      const double delta = queries[b * dim_ + node.axis] - node.split;
      const bool visit_far = delta * delta < radius_sq[b];
      if (delta < 0.0) {
        left_mask |= bit;
        if (visit_far) right_mask |= bit;
      } else {
        right_mask |= bit;
        if (visit_far) left_mask |= bit;
      }
    }
    if (right_mask != 0) stack[top++] = {node.right, right_mask};
    if (left_mask != 0) stack[top++] = {node.left, left_mask};
  }
}

BruteForceSearcher::BruteForceSearcher(std::span<const double> points,
                                       std::size_t dim)
    : points_(points), dim_(dim), count_(dim == 0 ? 0 : points.size() / dim) {
  support::expect(dim > 0, "BruteForceSearcher: dimension must be positive");
  support::expect(points.size() % dim == 0,
                  "BruteForceSearcher: point array size not a multiple of dim");
}

Neighbor BruteForceSearcher::nearest(std::span<const double> query) const {
  auto result = k_nearest(query, 1);
  support::expect(!result.empty(), "BruteForceSearcher::nearest: empty set");
  return result.front();
}

std::vector<Neighbor> BruteForceSearcher::k_nearest(
    std::span<const double> query, std::size_t k, std::size_t skip_index) const {
  support::expect(query.size() == dim_,
                  "BruteForceSearcher::k_nearest: wrong query dim");
  std::vector<Neighbor> all;
  all.reserve(count_);
  for (std::size_t i = 0; i < count_; ++i) {
    if (i == skip_index) continue;
    const double* p = points_.data() + i * dim_;
    double d2 = 0.0;
    for (std::size_t d = 0; d < dim_; ++d) {
      const double diff = p[d] - query[d];
      d2 += diff * diff;
    }
    all.push_back({i, d2});
  }
  const std::size_t take = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(take),
                    all.end(), [](const Neighbor& a, const Neighbor& b) {
                      return a.dist_sq < b.dist_sq;
                    });
  all.resize(take);
  return all;
}

double BruteForceSearcher::kth_block_dist_sq(std::span<const double> query,
                                             std::size_t k,
                                             std::span<const DimBlock> blocks,
                                             std::size_t skip_index) const {
  support::expect(query.size() == dim_,
                  "BruteForceSearcher::kth_block_dist_sq: wrong query dim");
  support::expect(k >= 1,
                  "BruteForceSearcher::kth_block_dist_sq: k must be positive");
  std::vector<double> dists;
  dists.reserve(count_);
  for (std::size_t i = 0; i < count_; ++i) {
    if (i == skip_index) continue;
    const double* p = points_.data() + i * dim_;
    double max_sq = 0.0;
    for (const DimBlock& block : blocks) {
      double sum = 0.0;
      for (std::size_t d = block.offset; d < block.offset + block.dim; ++d) {
        const double diff = p[d] - query[d];
        sum += diff * diff;
      }
      max_sq = std::max(max_sq, sum);
    }
    dists.push_back(max_sq);
  }
  support::expect(dists.size() >= k,
                  "BruteForceSearcher::kth_block_dist_sq: fewer than k points");
  std::nth_element(dists.begin(),
                   dists.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   dists.end());
  return dists[k - 1];
}

std::size_t BruteForceSearcher::count_within_blocks(
    std::span<const double> query, double radius,
    std::span<const DimBlock> blocks, std::size_t skip_index) const {
  support::expect(query.size() == dim_,
                  "BruteForceSearcher::count_within_blocks: wrong query dim");
  if (radius <= 0.0) return 0;
  const double radius_sq = radius * radius;
  std::size_t count = 0;
  for (std::size_t i = 0; i < count_; ++i) {
    if (i == skip_index) continue;
    const double* p = points_.data() + i * dim_;
    double max_sq = 0.0;
    for (const DimBlock& block : blocks) {
      double sum = 0.0;
      for (std::size_t d = block.offset; d < block.offset + block.dim; ++d) {
        const double diff = p[d] - query[d];
        sum += diff * diff;
      }
      max_sq = std::max(max_sq, sum);
    }
    if (max_sq < radius_sq) ++count;
  }
  return count;
}

}  // namespace sops::geom
