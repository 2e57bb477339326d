#include "align/icp.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>

#include "geom/kdtree.hpp"
#include "support/error.hpp"

namespace sops::align {
namespace {

// Correspondence search structure: one 2-D kd-tree per particle type.
//
// The paper's type-lifted 3-D metric (x, y, type · lift) exists to make NN
// correspondences type-preserving — the lift is chosen so a cross-type
// candidate can never beat a same-type one. Querying the matching type's
// 2-D tree computes the same correspondence directly (for same-type pairs
// the lifted distance *is* the planar distance: the type axis contributes
// exactly 0.0), skips every wrong-type candidate the lifted tree still has
// to wade through near type-boundary splits, and drops a third of the
// per-point distance arithmetic.
struct TypedTargetTrees {
  std::vector<std::vector<double>> coords;       // per type: flat (x, y)
  std::vector<std::vector<std::uint32_t>> index; // per type: global target idx
  std::vector<geom::KdTree> trees;               // per type, over coords

  TypedTargetTrees(std::span<const geom::Vec2> target,
                   std::span<const sim::TypeId> target_types) {
    sim::TypeId max_type = 0;
    for (const sim::TypeId t : target_types) max_type = std::max(max_type, t);
    const std::size_t types = static_cast<std::size_t>(max_type) + 1;
    coords.resize(types);
    index.resize(types);
    for (std::size_t i = 0; i < target.size(); ++i) {
      const auto type = static_cast<std::size_t>(target_types[i]);
      coords[type].push_back(target[i].x);
      coords[type].push_back(target[i].y);
      index[type].push_back(static_cast<std::uint32_t>(i));
    }
    trees.reserve(types);
    for (std::size_t type = 0; type < types; ++type) {
      trees.emplace_back(coords[type], 2);
    }
  }

  // Global index of the target nearest to `p` among type `type`; `bound` as
  // in KdTree::nearest (the result does not depend on it).
  [[nodiscard]] std::size_t nearest(geom::Vec2 p, sim::TypeId type,
                                    double bound) const {
    const double query[2] = {p.x, p.y};
    const geom::Neighbor nn =
        trees[static_cast<std::size_t>(type)].nearest({query, 2}, bound);
    return index[static_cast<std::size_t>(type)][nn.index];
  }
};

void check_type_histograms(std::span<const sim::TypeId> a,
                           std::span<const sim::TypeId> b) {
  sim::TypeId max_type = 0;
  for (const sim::TypeId t : a) max_type = std::max(max_type, t);
  for (const sim::TypeId t : b) max_type = std::max(max_type, t);
  const auto ha = sim::type_histogram(a, max_type + 1);
  const auto hb = sim::type_histogram(b, max_type + 1);
  support::expect(ha == hb, "align: type histograms differ");
}

// One ICP descent from the given initial rotation (about the source
// centroid). Returns the final transform and MSE.
IcpResult icp_descent(std::span<const geom::Vec2> source,
                      std::span<const sim::TypeId> source_types,
                      std::span<const geom::Vec2> target,
                      const TypedTargetTrees& target_trees,
                      double initial_angle, const IcpOptions& options) {
  const geom::Vec2 source_centroid = geom::centroid(source);
  geom::RigidTransform2 current{
      initial_angle,
      source_centroid - geom::rotated(source_centroid, initial_angle)};

  IcpResult result;
  result.mean_squared_error = std::numeric_limits<double>::infinity();

  std::vector<geom::Vec2> moved(source.size());
  std::vector<geom::Vec2> matched(source.size());
  // Each point's match from the previous iteration. Near convergence a point
  // moves little, so its old match is almost its new nearest neighbor, and
  // the distance to it bounds the kd-tree descent tightly; the bound prunes
  // but never changes the answer (see KdTree::nearest).
  std::vector<std::size_t> previous(source.size());

  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    for (std::size_t i = 0; i < source.size(); ++i) {
      moved[i] = current.apply(source[i]);
    }

    // NN correspondences within each point's own type (type never crosses).
    double mse = 0.0;
    for (std::size_t i = 0; i < source.size(); ++i) {
      const double bound =
          iter == 0 ? std::numeric_limits<double>::infinity()
                    : geom::dist_sq(moved[i], target[previous[i]]);
      const std::size_t nn =
          target_trees.nearest(moved[i], source_types[i], bound);
      previous[i] = nn;
      matched[i] = target[nn];
      mse += geom::dist_sq(moved[i], matched[i]);
    }
    mse /= static_cast<double>(source.size());

    if (mse >= result.mean_squared_error - options.convergence_tolerance) {
      result.mean_squared_error = std::min(mse, result.mean_squared_error);
      break;
    }
    result.mean_squared_error = mse;

    // Best rigid motion of the *original* source onto the matched targets —
    // fitting from the original (not the moved) points avoids compounding
    // round-off across iterations.
    current = geom::fit_rigid(source, matched);
  }
  result.transform = current;
  return result;
}

}  // namespace

IcpResult align_icp(std::span<const geom::Vec2> source,
                    std::span<const sim::TypeId> source_types,
                    std::span<const geom::Vec2> target,
                    std::span<const sim::TypeId> target_types,
                    const IcpOptions& options) {
  support::expect(!source.empty() && source.size() == source_types.size() &&
                      target.size() == target_types.size(),
                  "align_icp: invalid inputs");
  support::expect(source.size() == target.size(), "align_icp: size mismatch");
  support::expect(options.rotation_restarts >= 1,
                  "align_icp: need at least one restart");
  check_type_histograms(source_types, target_types);
  support::expect(geom::all_finite(source),
                  "align_icp: non-finite source coordinate");
  support::expect(geom::all_finite(target),
                  "align_icp: non-finite target coordinate");

  const TypedTargetTrees target_trees(target, target_types);

  IcpResult best;
  best.mean_squared_error = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < options.rotation_restarts; ++r) {
    const double angle = 2.0 * std::numbers::pi * static_cast<double>(r) /
                         static_cast<double>(options.rotation_restarts);
    IcpResult candidate = icp_descent(source, source_types, target,
                                      target_trees, angle, options);
    if (candidate.mean_squared_error < best.mean_squared_error) {
      best = candidate;
    }
  }
  return best;
}

std::vector<std::size_t> match_by_type(std::span<const geom::Vec2> source,
                                       std::span<const sim::TypeId> source_types,
                                       std::span<const geom::Vec2> target,
                                       std::span<const sim::TypeId> target_types) {
  support::expect(source.size() == target.size() &&
                      source.size() == source_types.size() &&
                      target.size() == target_types.size(),
                  "match_by_type: invalid inputs");
  check_type_histograms(source_types, target_types);
  // A NaN distance never wins best_candidate's strict <, so a non-finite
  // point would keep re-pushing an already-used target forever.
  support::expect(geom::all_finite(source),
                  "match_by_type: non-finite source coordinate");
  support::expect(geom::all_finite(target),
                  "match_by_type: non-finite target coordinate");

  // Lazy greedy matching, output-identical to sorting all same-type pairs by
  // (dist_sq, s, t) and committing greedily, without materializing the O(n²)
  // pair list. Each source keeps one heap entry: its closest unused
  // same-type target at the time the entry was pushed. Distances to a source
  // never shrink as targets get used, so a stale entry (target used since)
  // sorts no later than the source's true current best; popping it and
  // re-pushing the recomputed best therefore preserves the global
  // (dist_sq, s, t) commit order exactly, ties included.
  struct Pair {
    double dist_sq;
    std::uint32_t s;
    std::uint32_t t;
  };
  const auto later = [](const Pair& a, const Pair& b) noexcept {
    if (a.dist_sq != b.dist_sq) return a.dist_sq > b.dist_sq;
    if (a.s != b.s) return a.s > b.s;  // deterministic tie-break
    return a.t > b.t;
  };

  const std::size_t n = source.size();
  sim::TypeId max_type = 0;
  for (const sim::TypeId t : target_types) max_type = std::max(max_type, t);
  std::vector<std::vector<std::uint32_t>> targets_of_type(
      static_cast<std::size_t>(max_type) + 1);
  for (std::uint32_t t = 0; t < n; ++t) {
    targets_of_type[target_types[t]].push_back(t);
  }

  std::vector<char> target_used(n, 0);
  // Closest unused target of source s; strict < keeps the lowest index among
  // equal distances, matching the sorted path's t tie-break.
  const auto best_candidate = [&](std::uint32_t s) noexcept {
    Pair best{std::numeric_limits<double>::infinity(), s, 0};
    for (const std::uint32_t t : targets_of_type[source_types[s]]) {
      if (target_used[t]) continue;
      const double d2 = geom::dist_sq(source[s], target[t]);
      if (d2 < best.dist_sq) {
        best.dist_sq = d2;
        best.t = t;
      }
    }
    return best;
  };

  std::vector<Pair> heap;
  heap.reserve(n);
  for (std::uint32_t s = 0; s < n; ++s) heap.push_back(best_candidate(s));
  std::make_heap(heap.begin(), heap.end(), later);

  std::vector<std::size_t> match(n, n);
  std::size_t committed = 0;
  while (committed < n && !heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const Pair p = heap.back();
    heap.pop_back();
    if (target_used[p.t]) {
      heap.push_back(best_candidate(p.s));
      std::push_heap(heap.begin(), heap.end(), later);
      continue;
    }
    match[p.s] = p.t;
    target_used[p.t] = 1;
    ++committed;
  }
  support::expect(committed == n, "match_by_type: incomplete matching");
  return match;
}

}  // namespace sops::align
