// Cell-grid tests: neighbor sets must match the brute-force oracle for any
// point distribution, including points far from the origin and clouds whose
// bounding box is too sparse to rank densely; and a rebuild sharded over
// any executor width must equal the serial build field for field.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "geom/cell_grid.hpp"
#include "rng/engine.hpp"
#include "rng/samplers.hpp"
#include "support/error.hpp"
#include "support/executor.hpp"

namespace {

using sops::geom::CellGrid;
using sops::geom::Vec2;

std::vector<Vec2> random_cloud(std::size_t n, double extent, std::uint64_t seed,
                               Vec2 offset = {}) {
  sops::rng::Xoshiro256 engine(seed);
  std::vector<Vec2> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    points.push_back(offset + Vec2{sops::rng::uniform(engine, -extent, extent),
                                   sops::rng::uniform(engine, -extent, extent)});
  }
  return points;
}

std::vector<std::size_t> brute_force_neighbors(const std::vector<Vec2>& points,
                                               std::size_t i, double radius) {
  std::vector<std::size_t> out;
  for (std::size_t j = 0; j < points.size(); ++j) {
    if (j != i && dist_sq(points[j], points[i]) < radius * radius) {
      out.push_back(j);
    }
  }
  return out;
}

struct GridCase {
  std::size_t n;
  double extent;
  double radius;
  Vec2 offset;
};

class CellGridVsBruteForce : public ::testing::TestWithParam<GridCase> {};

TEST_P(CellGridVsBruteForce, NeighborSetsMatch) {
  const auto& param = GetParam();
  const auto points =
      random_cloud(param.n, param.extent, 1234, param.offset);
  const CellGrid grid(points, param.radius);

  for (std::size_t i = 0; i < points.size(); ++i) {
    auto expected = brute_force_neighbors(points, i, param.radius);
    auto actual = grid.neighbors_of(i, param.radius);
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected) << "particle " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CellGridVsBruteForce,
    ::testing::Values(GridCase{1, 1.0, 1.0, {}}, GridCase{2, 0.1, 1.0, {}},
                      GridCase{50, 5.0, 1.5, {}}, GridCase{200, 10.0, 2.0, {}},
                      GridCase{100, 3.0, 3.0, {1e6, -1e6}},
                      GridCase{150, 20.0, 0.5, {-17.3, 42.0}},
                      GridCase{64, 0.01, 2.0, {}}));  // all in one cell

TEST(CellGrid, ForEachWithinArbitraryQueryPoint) {
  const auto points = random_cloud(80, 5.0, 9);
  const double radius = 2.0;
  const CellGrid grid(points, radius);
  const Vec2 q{0.5, -0.25};

  std::vector<std::size_t> actual;
  grid.for_each_within(q, radius, [&](std::size_t j) { actual.push_back(j); });

  std::vector<std::size_t> expected;
  for (std::size_t j = 0; j < points.size(); ++j) {
    if (dist(points[j], q) < radius) expected.push_back(j);
  }
  std::sort(actual.begin(), actual.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(actual, expected);
}

TEST(CellGrid, RadiusIsStrict) {
  const std::vector<Vec2> points{{0, 0}, {1, 0}};
  const CellGrid grid(points, 1.0);
  EXPECT_TRUE(grid.neighbors_of(0, 1.0).empty());  // dist == radius excluded
}

TEST(CellGrid, RadiusLargerThanCellThrows) {
  const std::vector<Vec2> points{{0, 0}};
  const CellGrid grid(points, 1.0);
  EXPECT_THROW((void)grid.neighbors_of(0, 2.0), sops::PreconditionError);
}

TEST(CellGrid, QueryRadiusBelowCellSizeIsAllowed) {
  const auto points = random_cloud(40, 2.0, 13);
  const CellGrid grid(points, 5.0);
  for (std::size_t i = 0; i < points.size(); ++i) {
    auto expected = brute_force_neighbors(points, i, 1.0);
    auto actual = grid.neighbors_of(i, 1.0);
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected);
  }
}

TEST(CellGrid, InvalidCellSizeThrows) {
  const std::vector<Vec2> points{{0, 0}};
  EXPECT_THROW(CellGrid(points, 0.0), sops::PreconditionError);
  EXPECT_THROW(CellGrid(points, -1.0), sops::PreconditionError);
  EXPECT_THROW(
      CellGrid(points, std::numeric_limits<double>::infinity()),
      sops::PreconditionError);
}

TEST(CellGrid, IndexOutOfRangeThrows) {
  const std::vector<Vec2> points{{0, 0}};
  const CellGrid grid(points, 1.0);
  EXPECT_THROW((void)grid.neighbors_of(1, 1.0), sops::PreconditionError);
}

TEST(CellGrid, CoincidentPointsSeeEachOther) {
  const std::vector<Vec2> points{{1, 1}, {1, 1}, {1, 1}};
  const CellGrid grid(points, 1.0);
  EXPECT_EQ(grid.neighbors_of(0, 1.0).size(), 2u);
}

TEST(CellGridRebuild, UnbuiltGridRejectsQueriesAndSizelessRebuild) {
  CellGrid grid;
  EXPECT_EQ(grid.size(), 0u);
  EXPECT_DOUBLE_EQ(grid.cell_size(), 0.0);
  // Queries on an unbuilt grid see no candidates (no UB, no probe loop).
  bool called = false;
  grid.for_each_within({0.5, 0.5}, 1.0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
  const std::vector<Vec2> points{{0, 0}};
  EXPECT_THROW(grid.rebuild(points), sops::PreconditionError);
  grid.rebuild(points, 1.0);
  EXPECT_EQ(grid.size(), 1u);
}

TEST(CellGridRebuild, MatchesFreshConstructionOnMovingPoints) {
  // Rebuilding in place over a drifting cloud must agree with a freshly
  // constructed grid at every step — same neighbor sets AND the same
  // enumeration order (the engine's bitwise contract).
  sops::rng::Xoshiro256 engine(77);
  auto points = random_cloud(120, 6.0, 77);
  CellGrid reused(points, 1.5);
  for (int step = 0; step < 130; ++step) {  // crosses the pruning interval
    for (Vec2& p : points) {
      p += Vec2{sops::rng::uniform(engine, -0.3, 0.3),
                sops::rng::uniform(engine, -0.3, 0.3)};
    }
    reused.rebuild(points);
    const CellGrid fresh(points, 1.5);
    for (std::size_t i = 0; i < points.size(); ++i) {
      std::vector<std::size_t> from_reused;
      std::vector<std::size_t> from_fresh;
      reused.for_each_neighbor(i, 1.5,
                               [&](std::size_t j) { from_reused.push_back(j); });
      fresh.for_each_neighbor(i, 1.5,
                              [&](std::size_t j) { from_fresh.push_back(j); });
      ASSERT_EQ(from_reused, from_fresh) << "step " << step << " particle " << i;
    }
  }
}

TEST(CellGridRebuild, RebuildCanChangeCellSizeAndPointCount) {
  CellGrid grid(random_cloud(50, 5.0, 3), 2.0);
  const auto more_points = random_cloud(200, 8.0, 4);
  grid.rebuild(more_points, 1.0);
  EXPECT_EQ(grid.size(), 200u);
  EXPECT_DOUBLE_EQ(grid.cell_size(), 1.0);
  for (std::size_t i = 0; i < more_points.size(); ++i) {
    auto expected = brute_force_neighbors(more_points, i, 1.0);
    auto actual = grid.neighbors_of(i, 1.0);
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected);
  }
}

TEST(CellGridRebuild, OccupiedCellCountIsReported) {
  // Four points in four distinct cells, then all in one cell.
  CellGrid grid(std::vector<Vec2>{{0.5, 0.5}, {1.5, 0.5}, {0.5, 1.5}, {1.5, 1.5}},
                1.0);
  EXPECT_EQ(grid.cell_count(), 4u);
  const std::vector<Vec2> clustered{{0.1, 0.1}, {0.2, 0.2}, {0.3, 0.3}, {0.4, 0.4}};
  grid.rebuild(clustered);
  EXPECT_EQ(grid.cell_count(), 1u);
}

// ------------------------------------------------- sharded rebuild parity

// Clouds that reach every rebuild path: fuzzed spreads with duplicates and
// points on cell boundaries, negative coordinates, a single cell, fewer
// points than chunks, and two far-apart clusters (a box too sparse to rank,
// so ids come from the sorted-key fallback).
std::vector<std::vector<Vec2>> parity_clouds() {
  std::vector<std::vector<Vec2>> clouds;
  sops::rng::Xoshiro256 engine(2026);
  for (int fuzz = 0; fuzz < 6; ++fuzz) {
    const std::size_t n = sops::rng::uniform_index(engine, 700) + 5;
    const double extent = sops::rng::uniform(engine, 0.5, 40.0);
    auto cloud = random_cloud(n, extent, 100 + fuzz,
                              Vec2{sops::rng::uniform(engine, -50.0, 50.0),
                                   sops::rng::uniform(engine, -50.0, 50.0)});
    for (std::size_t d = 0; d < n / 5; ++d) {  // duplicates
      cloud.push_back(cloud[sops::rng::uniform_index(engine, n)]);
    }
    for (int b = -3; b <= 3; ++b) {  // exactly on cell boundaries (side 1.5)
      cloud.push_back({1.5 * b, -1.5 * b});
    }
    clouds.push_back(std::move(cloud));
  }
  clouds.push_back(random_cloud(300, 30.0, 7, {-400.0, -250.0}));
  clouds.push_back(random_cloud(64, 0.2, 8));  // one cell
  clouds.push_back(random_cloud(3, 5.0, 9));   // n < width
  clouds.push_back({{0.25, 0.25}});
  auto far = random_cloud(150, 4.0, 10);
  const auto other = random_cloud(150, 4.0, 11, {9.0e4, -7.0e4});
  far.insert(far.end(), other.begin(), other.end());
  clouds.push_back(std::move(far));
  return clouds;
}

void expect_same_grid(CellGrid& wide, CellGrid& serial, std::size_t width) {
  const auto as_vec = [](auto span) {
    return std::vector<typename decltype(span)::value_type>(span.begin(),
                                                            span.end());
  };
  ASSERT_EQ(wide.cell_count(), serial.cell_count()) << width;
  EXPECT_EQ(as_vec(wide.bucket_starts()), as_vec(serial.bucket_starts()));
  EXPECT_EQ(as_vec(wide.bucket_entries()), as_vec(serial.bucket_entries()));
  EXPECT_EQ(as_vec(wide.bucket_x()), as_vec(serial.bucket_x()));
  EXPECT_EQ(as_vec(wide.bucket_y()), as_vec(serial.bucket_y()));
  for (std::size_t c = 0; c < serial.cell_count(); ++c) {
    EXPECT_EQ(wide.half_shell_spans(c), serial.half_shell_spans(c))
        << "cell " << c;
  }
  const auto fields = [](const CellGrid& grid, std::size_t columns) {
    std::vector<CellGrid::Stripe> stripes;
    grid.stripes(columns, stripes);
    std::vector<std::array<std::uint32_t, 3>> out;
    for (const auto& s : stripes) {
      out.push_back({s.cell_begin, s.cell_end, s.halo_end});
    }
    return out;
  };
  for (std::size_t columns = 1; columns <= 8; ++columns) {
    EXPECT_EQ(fields(wide, columns), fields(serial, columns))
        << "width " << width << " columns " << columns;
  }
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(wide.neighbors_of(i, 1.5), serial.neighbors_of(i, 1.5))
        << "width " << width << " point " << i;
  }
}

// Buckets hold exactly the points of one floor(p / side) cell, and cell
// keys ascend column-major (x, then y) across dense ids.
void expect_column_major_buckets(const CellGrid& grid,
                                 const std::vector<Vec2>& points) {
  const auto key = [&](std::uint32_t i) {
    return std::pair{std::floor(points[i].x / grid.cell_size()),
                     std::floor(points[i].y / grid.cell_size())};
  };
  const auto starts = grid.bucket_starts();
  const auto entries = grid.bucket_entries();
  for (std::size_t c = 0; c < grid.cell_count(); ++c) {
    for (std::uint32_t k = starts[c]; k < starts[c + 1]; ++k) {
      EXPECT_EQ(key(entries[k]), key(entries[starts[c]])) << "cell " << c;
      if (k > starts[c]) {
        EXPECT_LT(entries[k - 1], entries[k]) << "cell " << c;
      }
    }
    if (c > 0) {
      EXPECT_LT(key(entries[starts[c - 1]]), key(entries[starts[c]]));
    }
  }
}

TEST(CellGridShardedRebuild, EveryWidthMatchesTheSerialBuild) {
  for (const auto& cloud : parity_clouds()) {
    CellGrid serial(cloud, 1.5);
    expect_column_major_buckets(serial, cloud);
    for (std::size_t width = 1; width <= 4; ++width) {
      sops::support::TaskPool pool(width);
      CellGrid wide;
      std::vector<double> xs;
      std::vector<double> ys;
      for (const Vec2 p : cloud) {
        xs.push_back(p.x);
        ys.push_back(p.y);
      }
      wide.rebuild(sops::geom::PositionLanes{xs, ys}, 1.5, pool.executor());
      expect_same_grid(wide, serial, width);
    }
  }
}

TEST(CellGridHalfShell, EveryNeighborPairExactlyOnce) {
  // Each point of a cell pairs with the entries after it in the cell's
  // first span and with all of its second: across all cells that must
  // enumerate every pair of points in neighboring cells exactly once —
  // on every parity cloud, the sparse-box clusters included.
  for (const auto& cloud : parity_clouds()) {
    const CellGrid grid(cloud, 1.5);
    const auto starts = grid.bucket_starts();
    const auto entries = grid.bucket_entries();
    std::map<std::pair<std::uint32_t, std::uint32_t>, int> seen;
    for (std::size_t c = 0; c < grid.cell_count(); ++c) {
      const auto spans = grid.half_shell_spans(c);
      ASSERT_EQ(spans[0].first, starts[c]);
      ASSERT_GE(spans[0].second, starts[c + 1]);
      for (std::uint32_t k = starts[c]; k < starts[c + 1]; ++k) {
        const auto visit = [&](std::uint32_t e) {
          const std::uint32_t i = entries[k];
          const std::uint32_t j = entries[e];
          ++seen[{std::min(i, j), std::max(i, j)}];
        };
        for (std::uint32_t e = k + 1; e < spans[0].second; ++e) visit(e);
        for (std::uint32_t e = spans[1].first; e < spans[1].second; ++e) {
          visit(e);
        }
      }
    }
    const auto key = [&](std::uint32_t i) {
      return std::pair{std::floor(cloud[i].x / 1.5),
                       std::floor(cloud[i].y / 1.5)};
    };
    std::size_t neighbors = 0;
    for (std::uint32_t i = 0; i < cloud.size(); ++i) {
      for (std::uint32_t j = i + 1; j < cloud.size(); ++j) {
        const auto [xi, yi] = key(i);
        const auto [xj, yj] = key(j);
        if (std::abs(xi - xj) > 1.0 || std::abs(yi - yj) > 1.0) continue;
        ++neighbors;
        const auto it = seen.find({i, j});
        ASSERT_TRUE(it != seen.end()) << i << " " << j;
        EXPECT_EQ(it->second, 1) << i << " " << j;
      }
    }
    EXPECT_EQ(seen.size(), neighbors);
  }
}

TEST(CellGridShardedRebuild, SparseBoxNeighborsMatchBruteForce) {
  // Two clusters 10⁵ cells apart: the occupied box is far too sparse to
  // rank densely, so lookups run on the sorted-key fallback — including
  // query points between and beyond the clusters.
  auto points = random_cloud(120, 3.0, 21);
  const auto other = random_cloud(120, 3.0, 22, {1.0e5, 5.0e4});
  points.insert(points.end(), other.begin(), other.end());
  sops::support::TaskPool pool(3);
  std::vector<double> xs;
  std::vector<double> ys;
  for (const Vec2 p : points) {
    xs.push_back(p.x);
    ys.push_back(p.y);
  }
  CellGrid grid;
  grid.rebuild(sops::geom::PositionLanes{xs, ys}, 1.0, pool.executor());
  expect_column_major_buckets(grid, points);
  for (std::size_t i = 0; i < points.size(); ++i) {
    auto expected = brute_force_neighbors(points, i, 1.0);
    auto actual = grid.neighbors_of(i, 1.0);
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected) << "particle " << i;
  }
  for (const Vec2 q :
       {Vec2{5.0e4, 2.5e4}, Vec2{1.0e5 + 0.5, 5.0e4}, Vec2{-9.0, 0.0}}) {
    std::vector<std::size_t> actual;
    grid.for_each_within(q, 1.0, [&](std::size_t j) { actual.push_back(j); });
    std::vector<std::size_t> expected;
    for (std::size_t j = 0; j < points.size(); ++j) {
      if (dist(points[j], q) < 1.0) expected.push_back(j);
    }
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected);
  }
}

TEST(CellGridShardedRebuild, RejectsCoordinatesWithoutAnInt64CellKey) {
  // A NaN, infinite or astronomically far coordinate has no int64 cell key;
  // the key pass must name the problem instead of converting it (UB) and
  // crashing further down. Checked at executor widths 1 and 4, with the
  // bad point inside a later chunk.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const Vec2 bad : {Vec2{nan, 0.0}, Vec2{0.0, nan}, Vec2{inf, 0.0},
                         Vec2{0.0, -inf}, Vec2{1e300, 0.0}, Vec2{0.0, -1e300}}) {
    auto points = random_cloud(40, 5.0, 31);
    points[29] = bad;
    std::vector<double> xs;
    std::vector<double> ys;
    sops::geom::deinterleave(points, xs, ys);
    for (const std::size_t width : {1u, 4u}) {
      sops::support::TaskPool pool(width);
      CellGrid grid;
      EXPECT_THROW(grid.rebuild(sops::geom::PositionLanes{xs, ys}, 3.0,
                                pool.executor()),
                   sops::PreconditionError)
          << "(" << bad.x << ", " << bad.y << ") width " << width;
    }
  }
  // Far but representable points still index: 1e19 / 3 < 2^62.
  std::vector<Vec2> far{{1e19, 0.0}, {-1e19, 1e19}, {0.0, 0.0}};
  const CellGrid grid(far, 3.0);
  EXPECT_EQ(grid.size(), 3u);
  EXPECT_TRUE(grid.neighbors_of(0, 3.0).empty());
}

}  // namespace
