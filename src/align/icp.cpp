#include "align/icp.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>

#include "support/error.hpp"

namespace sops::align {
namespace {

// Grid cells per point of a type. On coarse_n512, 16 answers converged
// queries no faster (70 vs 75 ns) and takes 3x as long to build.
constexpr double kCellsPerPoint = 4.0;
// Padding around each type's bounding box, in cells (about two point
// spacings), so queries just off the hull still land inside the grid. On
// coarse_n512, 2 cells left 2% of converged queries outside, 4 cells 0.7%.
constexpr double kPadCells = 4.0;
// Relative margin of both exclusion tests. A computed squared distance is
// within a factor (1 ± 4u), u = 2⁻⁵³, of the exact distance between the two
// floating-point points, whatever their magnitude; 1e-10 dominates every
// such factor in the proofs below by five orders of magnitude.
constexpr double kRelMargin = 1e-10;
// Absolute margin for the same tests, covering subnormal results (whose
// rounding error is absolute, not relative).
constexpr double kAbsMargin = 1e-300;
// Cell boxes are enlarged by this fraction of the grid's coordinate scale
// (|origin| + extent) — far above the ~5u rounding of the floor() cell
// assignment and of the box corners themselves.
constexpr double kBoxSlack = 1e-12;
// A cell whose ring scan would need more rings or points than this stays
// uncovered and its queries use the tree: deep inside an empty region the
// scan would cover most of the grid, and near the center of a ring every
// point is a Voronoi neighbor, so a long scan would be slower than the tree.
constexpr std::ptrdiff_t kMaxRing = 12;
constexpr std::size_t kMaxCellScan = 128;

// The kd-tree's distance expression: (x_t − x_q)² + (y_t − y_q)², each
// product rounded (the build disables FP contraction).
double tree_dist_sq(const double* p, double qx, double qy) noexcept {
  const double dx = p[0] - qx;
  const double dy = p[1] - qy;
  return dx * dx + dy * dy;
}

struct Box {
  double x0, y0, x1, y1;
};

double min_dist_sq(const Box& b, const double* p) noexcept {
  const double gx = p[0] < b.x0 ? b.x0 - p[0] : (p[0] > b.x1 ? p[0] - b.x1 : 0.0);
  const double gy = p[1] < b.y0 ? b.y0 - p[1] : (p[1] > b.y1 ? p[1] - b.y1 : 0.0);
  return gx * gx + gy * gy;
}

// Squared distances from the box corners to `p`.
std::array<double, 4> corner_dist_sq(const Box& b, const double* p) noexcept {
  return {tree_dist_sq(p, b.x0, b.y0), tree_dist_sq(p, b.x1, b.y0),
          tree_dist_sq(p, b.x0, b.y1), tree_dist_sq(p, b.x1, b.y1)};
}

double max_of(const std::array<double, 4>& v) noexcept {
  return std::max(std::max(v[0], v[1]), std::max(v[2], v[3]));
}

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
// centroid). Returns the final transform and MSE. A descent that reaches
// max_iterations evaluates its last fit once more, so the MSE it returns is
// that fit's own.
IcpResult icp_descent(std::span<const geom::Vec2> source,
                      std::span<const sim::TypeId> source_types,
                      const IcpReference& reference, double initial_angle,
                      const IcpOptions& options) {
  const geom::Vec2 source_centroid = geom::centroid(source);
  geom::RigidTransform2 current{
      initial_angle,
      source_centroid - geom::rotated(source_centroid, initial_angle)};

  IcpResult result;
  result.mean_squared_error = std::numeric_limits<double>::infinity();

  std::vector<geom::Vec2> moved(source.size());
  std::vector<geom::Vec2> matched(source.size());

  for (std::size_t iter = 0;; ++iter) {
    for (std::size_t i = 0; i < source.size(); ++i) {
      moved[i] = current.apply(source[i]);
    }

    // NN correspondences within each point's own type (type never crosses).
    // A point's previous match is almost its new nearest neighbor near
    // convergence, so the distance to it bounds a kd-tree fallback tightly;
    // the bound prunes but never changes the answer (see KdTree::nearest).
    double mse = 0.0;
    for (std::size_t i = 0; i < source.size(); ++i) {
      const double bound = iter == 0
                               ? std::numeric_limits<double>::infinity()
                               : geom::dist_sq(moved[i], matched[i]);
      matched[i] = reference.nearest(moved[i], source_types[i], bound).point;
      mse += geom::dist_sq(moved[i], matched[i]);
    }
    mse /= static_cast<double>(source.size());

    if (iter == options.max_iterations) {
      result.mean_squared_error = mse;
      break;
    }
    result.iterations = iter + 1;
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

// Candidate table of one type. A cell keeps every point p that could be the
// nearest (or tie for nearest) to some query assigned to the cell; `box` is
// the cell enlarged by the floor() slack, so it holds every such query. With
// anchor a (the point of least maximum distance to the box among those the
// ring scan saw), p is dropped only when one of two tests proves every
// query q in the box computes d(q,p) > d(q,a), strictly:
//  1. mindist(box, p)² > maxdist(box, a)²·(1 + kRelMargin): then exact
//     d(q,p)² > exact d(q,a)² by more than the (1 ± 4u) computation error.
//  2. At all four corners c, d(c,p)² − d(c,a)² > kRelMargin·(maxdist(box,
//     p)² + maxdist(box, a)²). d(q,p)² − d(q,a)² is affine in q (the
//     bisector is a line), so its minimum over the convex box is at a
//     corner, and the margin covers the rounding of both query distances.
// Every dropped point therefore loses strictly to the anchor, which is never
// dropped: a unique minimum over the candidates is the unique global one.
IcpReference::TypeIndex::TypeIndex(std::vector<double> coords_in,
                                   std::vector<std::uint32_t> index_in)
    : coords(std::move(coords_in)), index(std::move(index_in)), tree(coords, 2) {
  const std::size_t m = index.size();
  if (m == 0) return;
  double x_lo = coords[0], x_hi = coords[0], y_lo = coords[1], y_hi = coords[1];
  for (std::size_t j = 0; j < m; ++j) {
    x_lo = std::min(x_lo, coords[2 * j]);
    x_hi = std::max(x_hi, coords[2 * j]);
    y_lo = std::min(y_lo, coords[2 * j + 1]);
    y_hi = std::max(y_hi, coords[2 * j + 1]);
  }
  const double width = x_hi - x_lo;
  const double height = y_hi - y_lo;
  const double extent = std::max(width, height);
  // Coincident points always tie: the tree answers them all.
  if (!(extent > 0.0) || !std::isfinite(extent)) return;
  const double target_cells = kCellsPerPoint * static_cast<double>(m);
  // Square cells of ~kCellsPerPoint per point over the box area; a flat
  // (collinear) type gets ~kCellsPerPoint per point along its extent.
  const double h = std::max(std::sqrt(width * height / target_cells),
                            extent / target_cells);
  // A small type's padding is capped by its extent, or the margin would
  // hold most of its cells.
  const double pad = std::min(kPadCells * h, 0.25 * extent);
  const geom::Vec2 origin{x_lo - pad, y_lo - pad};
  const double columns = std::floor((width + 2.0 * pad) / h) + 1.0;
  const double rows = std::floor((height + 2.0 * pad) / h) + 1.0;
  const double slack = kBoxSlack * (std::abs(origin.x) + std::abs(origin.y) +
                                    (columns + rows) * h);
  // Far from the origin relative to the spacing, the slack would swell every
  // box over many cells; such a type answers from the tree.
  if (!(slack < 0.25 * h) || !(h > 0.0)) return;
  // CSR offsets are uint32: at most kMaxCellScan candidates per cell.
  if (columns * rows * static_cast<double>(kMaxCellScan) >
      static_cast<double>(std::numeric_limits<std::uint32_t>::max())) {
    return;
  }

  grid = {origin, h, static_cast<std::uint32_t>(columns),
          static_cast<std::uint32_t>(rows)};
  inverse_cell_size = 1.0 / h;
  const std::size_t cells = std::size_t{grid.columns} * grid.rows;

  const auto point = [&](std::uint32_t j) { return &coords[2 * std::size_t{j}]; };
  // The points bucketed by cell (CSR, counting sort), with the query side's
  // floor() assignment. The padding keeps every point inside the grid.
  const auto cell_of = [&](std::uint32_t j) {
    const double* p = point(j);
    const auto cx =
        static_cast<std::uint32_t>((p[0] - origin.x) * inverse_cell_size);
    const auto cy =
        static_cast<std::uint32_t>((p[1] - origin.y) * inverse_cell_size);
    return std::size_t{std::min(cy, grid.rows - 1)} * grid.columns +
           std::min(cx, grid.columns - 1);
  };
  // bucket_start[c] first holds the end of bucket c; the back-to-front
  // scatter counts it down to the bucket's start.
  std::vector<std::uint32_t> bucket_start(cells + 1, 0);
  for (std::uint32_t j = 0; j < m; ++j) ++bucket_start[cell_of(j)];
  for (std::size_t c = 1; c <= cells; ++c) bucket_start[c] += bucket_start[c - 1];
  std::vector<std::uint32_t> bucket(m);
  for (std::uint32_t j = static_cast<std::uint32_t>(m); j-- > 0;) {
    bucket[--bucket_start[cell_of(j)]] = j;
  }

  cell_start.reserve(cells + 1);
  cell_start.push_back(0);
  std::vector<std::uint32_t> seen;
  std::vector<std::uint32_t> kept;
  const auto rows_i = static_cast<std::ptrdiff_t>(grid.rows);
  const auto columns_i = static_cast<std::ptrdiff_t>(grid.columns);
  for (std::ptrdiff_t row = 0; row < rows_i; ++row) {
    for (std::ptrdiff_t column = 0; column < columns_i; ++column) {
      // The cell as the query side computes it: floor((q − origin) / h).
      const Box box{origin.x + column * h - slack, origin.y + row * h - slack,
                    origin.x + (column + 1) * h + slack,
                    origin.y + (row + 1) * h + slack};

      // Scan rings of buckets around the cell (Chebyshev distance r). Every
      // point r >= 2 rings out is at least (r − 1.5)·h from the box (its
      // bucket gap minus the slack on both sides), so once that exceeds
      // √test1 no unseen point can pass test 1. Meanwhile track the anchor:
      // the least maximum distance to the box.
      seen.clear();
      std::uint32_t anchor = 0;
      double anchor_max = std::numeric_limits<double>::infinity();
      // Buckets of columns [first, last] of row y.
      const auto scan = [&](std::ptrdiff_t y, std::ptrdiff_t first,
                            std::ptrdiff_t last) {
        const auto at = static_cast<std::size_t>(y * columns_i);
        for (std::uint32_t b = bucket_start[at + static_cast<std::size_t>(first)];
             b < bucket_start[at + static_cast<std::size_t>(last) + 1]; ++b) {
          seen.push_back(bucket[b]);
          const double d = max_of(corner_dist_sq(box, point(bucket[b])));
          if (d < anchor_max) {
            anchor_max = d;
            anchor = bucket[b];
          }
        }
      };
      bool covered = true;
      for (std::ptrdiff_t r = 0;; ++r) {
        const double test1 = anchor_max * (1.0 + kRelMargin) + kAbsMargin;
        if (r >= 2 && (static_cast<double>(r) - 1.5) * h >
                          std::sqrt(test1) * (1.0 + 1e-6)) {
          break;
        }
        const std::ptrdiff_t y0 = std::max<std::ptrdiff_t>(row - r, 0);
        const std::ptrdiff_t y1 = std::min(row + r, rows_i - 1);
        const std::ptrdiff_t x0 = std::max<std::ptrdiff_t>(column - r, 0);
        const std::ptrdiff_t x1 = std::min(column + r, columns_i - 1);
        if (r > 0 && y0 > row - r && y1 < row + r && x0 > column - r &&
            x1 < column + r) {
          break;  // the ring lies wholly outside the grid: every point seen
        }
        if (r > kMaxRing) {
          covered = false;
          break;
        }
        for (std::ptrdiff_t y = y0; y <= y1; ++y) {
          if (y == row - r || y == row + r) {
            scan(y, x0, x1);
          } else {
            if (column - r >= 0) scan(y, column - r, column - r);
            if (column + r < columns_i) scan(y, column + r, column + r);
          }
        }
        if (seen.size() > kMaxCellScan) {
          covered = false;
          break;
        }
      }

      kept.clear();
      if (covered) {
        const auto anchor_corners = corner_dist_sq(box, point(anchor));
        const double test1 = anchor_max * (1.0 + kRelMargin) + kAbsMargin;
        for (const std::uint32_t j : seen) {
          if (j != anchor) {
            if (min_dist_sq(box, point(j)) > test1) continue;
            const auto corners = corner_dist_sq(box, point(j));
            const double margin =
                kRelMargin * (max_of(corners) + anchor_max) + kAbsMargin;
            bool bisector = true;
            for (std::size_t c = 0; c < 4; ++c) {
              bisector = bisector && corners[c] - anchor_corners[c] > margin;
            }
            if (bisector) continue;
          }
          kept.push_back(j);
        }
        std::sort(kept.begin(), kept.end());
      }
      candidates.insert(candidates.end(), kept.begin(), kept.end());
      cell_start.push_back(static_cast<std::uint32_t>(candidates.size()));
    }
  }
  candidates.shrink_to_fit();
}

IcpReference::IcpReference(std::span<const geom::Vec2> target,
                           std::span<const sim::TypeId> target_types)
    : size_(target.size()) {
  support::expect(!target.empty() && target.size() == target_types.size(),
                  "IcpReference: invalid inputs");
  support::expect(target.size() <= std::numeric_limits<std::uint32_t>::max(),
                  "IcpReference: too many points");
  support::expect(geom::all_finite(target),
                  "IcpReference: non-finite target coordinate");
  sim::TypeId max_type = 0;
  for (const sim::TypeId t : target_types) max_type = std::max(max_type, t);
  const std::size_t type_count = static_cast<std::size_t>(max_type) + 1;
  type_counts_ = sim::type_histogram(target_types, type_count);

  types_.reserve(type_count);
  for (std::size_t type = 0; type < type_count; ++type) {
    std::vector<double> coords;
    std::vector<std::uint32_t> index;
    coords.reserve(2 * type_counts_[type]);
    index.reserve(type_counts_[type]);
    for (std::size_t i = 0; i < target.size(); ++i) {
      if (target_types[i] != type) continue;
      coords.push_back(target[i].x);
      coords.push_back(target[i].y);
      index.push_back(static_cast<std::uint32_t>(i));
    }
    types_.emplace_back(std::move(coords), std::move(index));
  }
}

const IcpReference::Grid& IcpReference::grid(sim::TypeId type) const {
  support::expect(type < types_.size(), "IcpReference::grid: unknown type");
  return types_[type].grid;
}

Correspondence IcpReference::tree_nearest(const TypeIndex& t, geom::Vec2 query,
                                          double bound,
                                          CorrespondenceRoute route) {
  const double q[2] = {query.x, query.y};
  const std::size_t local = t.tree.nearest({q, 2}, bound).index;
  return {t.index[local], {t.coords[2 * local], t.coords[2 * local + 1]}, route};
}

IcpResult align_icp(std::span<const geom::Vec2> source,
                    std::span<const sim::TypeId> source_types,
                    const IcpReference& reference, const IcpOptions& options) {
  support::expect(!source.empty() && source.size() == source_types.size(),
                  "align_icp: invalid inputs");
  support::expect(source.size() == reference.size(), "align_icp: size mismatch");
  support::expect(options.rotation_restarts >= 1,
                  "align_icp: need at least one restart");
  // No iteration leaves every restart at MSE +inf, which no restart beats:
  // the identity would come back as the alignment.
  support::expect(options.max_iterations >= 1,
                  "align_icp: need at least one iteration");
  // A NaN tolerance never stops a descent (every comparison with it fails).
  support::expect(options.convergence_tolerance >= 0.0,
                  "align_icp: convergence tolerance must be >= 0");
  const auto counts = reference.type_counts();
  const bool known_types = std::ranges::all_of(
      source_types, [&](sim::TypeId t) { return t < counts.size(); });
  support::expect(
      known_types && std::ranges::equal(
                         sim::type_histogram(source_types, counts.size()), counts),
      "align: type histograms differ");
  support::expect(geom::all_finite(source),
                  "align_icp: non-finite source coordinate");

  IcpResult best;
  best.mean_squared_error = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < options.rotation_restarts; ++r) {
    const double angle = 2.0 * std::numbers::pi * static_cast<double>(r) /
                         static_cast<double>(options.rotation_restarts);
    IcpResult candidate =
        icp_descent(source, source_types, reference, angle, options);
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
