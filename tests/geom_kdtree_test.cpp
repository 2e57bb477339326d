// k-d tree tests: exact agreement with the brute-force oracle across
// dimensions, point counts, and query types.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "geom/kdtree.hpp"
#include "rng/engine.hpp"
#include "rng/samplers.hpp"
#include "support/error.hpp"

namespace {

using sops::geom::BruteForceSearcher;
using sops::geom::KdTree;
using sops::geom::Neighbor;

std::vector<double> random_points(std::size_t count, std::size_t dim,
                                  std::uint64_t seed) {
  sops::rng::Xoshiro256 engine(seed);
  std::vector<double> data(count * dim);
  for (double& v : data) v = sops::rng::uniform(engine, -10.0, 10.0);
  return data;
}

struct TreeCase {
  std::size_t count;
  std::size_t dim;
};

class KdTreeVsBruteForce : public ::testing::TestWithParam<TreeCase> {};

TEST_P(KdTreeVsBruteForce, NearestMatchesOracle) {
  const auto [count, dim] = GetParam();
  const auto data = random_points(count, dim, 17);
  const KdTree tree(data, dim);
  const BruteForceSearcher oracle(data, dim);

  const auto queries = random_points(50, dim, 18);
  for (std::size_t q = 0; q < 50; ++q) {
    const std::span<const double> query{queries.data() + q * dim, dim};
    const Neighbor a = tree.nearest(query);
    const Neighbor b = oracle.nearest(query);
    EXPECT_DOUBLE_EQ(a.dist_sq, b.dist_sq);
  }
}

TEST_P(KdTreeVsBruteForce, KNearestMatchesOracle) {
  const auto [count, dim] = GetParam();
  const auto data = random_points(count, dim, 23);
  const KdTree tree(data, dim);
  const BruteForceSearcher oracle(data, dim);

  const auto queries = random_points(20, dim, 24);
  for (const std::size_t k : {1u, 3u, 7u}) {
    for (std::size_t q = 0; q < 20; ++q) {
      const std::span<const double> query{queries.data() + q * dim, dim};
      const auto a = tree.k_nearest(query, k);
      const auto b = oracle.k_nearest(query, k);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i].dist_sq, b[i].dist_sq) << "k=" << k << " i=" << i;
      }
    }
  }
}

// One block spanning every axis: the block-max metric is then the plain
// Euclidean one.
std::vector<sops::geom::DimBlock> whole(std::size_t dim) { return {{0, dim}}; }

TEST_P(KdTreeVsBruteForce, CountWithinSingleBlockMatchesOracle) {
  const auto [count, dim] = GetParam();
  const auto data = random_points(count, dim, 29);
  const KdTree tree(data, dim);
  const BruteForceSearcher oracle(data, dim);
  const auto blocks = whole(dim);

  const auto queries = random_points(20, dim, 30);
  for (const double radius : {0.5, 2.0, 8.0, 40.0}) {
    for (std::size_t q = 0; q < 20; ++q) {
      const std::span<const double> query{queries.data() + q * dim, dim};
      EXPECT_EQ(tree.count_within_blocks(query, radius, blocks),
                oracle.count_within_blocks(query, radius, blocks))
          << "radius=" << radius;
    }
  }
}

TEST_P(KdTreeVsBruteForce, SkipIndexLeaveOneOut) {
  const auto [count, dim] = GetParam();
  const auto data = random_points(count, dim, 31);
  const KdTree tree(data, dim);
  const BruteForceSearcher oracle(data, dim);

  for (std::size_t s = 0; s < std::min<std::size_t>(count, 25); ++s) {
    const std::span<const double> query{data.data() + s * dim, dim};
    const auto a = tree.k_nearest(query, 3, s);
    const auto b = oracle.k_nearest(query, 3, s);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_NE(a[i].index, s);  // never returns the skipped point
      EXPECT_DOUBLE_EQ(a[i].dist_sq, b[i].dist_sq);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KdTreeVsBruteForce,
    ::testing::Values(TreeCase{1, 2}, TreeCase{5, 2}, TreeCase{16, 2},
                      TreeCase{17, 2}, TreeCase{200, 2}, TreeCase{200, 3},
                      TreeCase{100, 5}, TreeCase{64, 8}, TreeCase{500, 1}));

TEST(KdTree, SelfQueryFindsSelfFirst) {
  const auto data = random_points(100, 3, 5);
  const KdTree tree(data, 3);
  for (std::size_t i = 0; i < 100; ++i) {
    const std::span<const double> query{data.data() + i * 3, 3};
    EXPECT_DOUBLE_EQ(tree.nearest(query).dist_sq, 0.0);
  }
}

TEST(KdTree, KNearestSortedAscending) {
  const auto data = random_points(300, 2, 41);
  const KdTree tree(data, 2);
  const double query[2] = {0.0, 0.0};
  const auto result = tree.k_nearest({query, 2}, 10);
  ASSERT_EQ(result.size(), 10u);
  EXPECT_TRUE(std::is_sorted(
      result.begin(), result.end(),
      [](const Neighbor& a, const Neighbor& b) { return a.dist_sq < b.dist_sq; }));
}

TEST(KdTree, KLargerThanTreeReturnsAll) {
  const auto data = random_points(7, 2, 43);
  const KdTree tree(data, 2);
  const double query[2] = {1.0, 1.0};
  EXPECT_EQ(tree.k_nearest({query, 2}, 100).size(), 7u);
}

TEST(KdTree, DuplicatePointsAllFound) {
  // All points identical: degenerate zero-spread split path.
  std::vector<double> data(50 * 2, 3.25);
  const KdTree tree(data, 2);
  const double query[2] = {3.25, 3.25};
  EXPECT_EQ(tree.k_nearest({query, 2}, 50).size(), 50u);
  EXPECT_EQ(tree.count_within_blocks({query, 2}, 0.001, whole(2)), 50u);
}

TEST(KdTree, CountWithinIsStrict) {
  const std::vector<double> data{0.0, 0.0, 1.0, 0.0};
  const KdTree tree(data, 2);
  const double query[2] = {0.0, 0.0};
  // Point at distance exactly 1.0 must not be counted for radius 1.0.
  EXPECT_EQ(tree.count_within_blocks({query, 2}, 1.0, whole(2)), 1u);
  EXPECT_EQ(tree.count_within_blocks({query, 2}, 1.0 + 1e-9, whole(2)), 2u);
}

TEST(KdTree, ZeroRadiusCountsNothing) {
  const auto data = random_points(20, 2, 47);
  const KdTree tree(data, 2);
  const double query[2] = {0.0, 0.0};
  EXPECT_EQ(tree.count_within_blocks({query, 2}, 0.0, whole(2)), 0u);
}

TEST(KdTree, EmptyTree) {
  const std::vector<double> data;
  const KdTree tree(data, 2);
  EXPECT_EQ(tree.size(), 0u);
  const double query[2] = {0.0, 0.0};
  EXPECT_TRUE(tree.k_nearest({query, 2}, 3).empty());
  EXPECT_EQ(tree.count_within_blocks({query, 2}, 1.0, whole(2)), 0u);
  EXPECT_THROW((void)tree.nearest({query, 2}), sops::PreconditionError);
}

TEST(KdTree, InvalidConstructionThrows) {
  const std::vector<double> data{1.0, 2.0, 3.0};
  EXPECT_THROW(KdTree(data, 2), sops::PreconditionError);  // 3 % 2 != 0
  EXPECT_THROW(KdTree(data, 0), sops::PreconditionError);
}

// The allocation-free nearest() must replicate k_nearest(query, 1) exactly —
// same winner index on ties, same bits — on every shape, including tie-heavy
// duplicate clouds.
TEST_P(KdTreeVsBruteForce, NearestIsExactlyKNearestOne) {
  const auto [count, dim] = GetParam();
  auto data = random_points(count, dim, 53);
  // Duplicate a few points to force exact ties.
  for (std::size_t i = 0; i + 1 < count && i < 4; ++i) {
    std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(i * dim), dim,
                data.begin() + static_cast<std::ptrdiff_t>((count - 1 - i) * dim));
  }
  const KdTree tree(data, dim);
  const auto queries = random_points(30, dim, 54);
  for (std::size_t q = 0; q < 30; ++q) {
    const std::span<const double> query{queries.data() + q * dim, dim};
    const Neighbor fast = tree.nearest(query);
    const Neighbor reference = tree.k_nearest(query, 1).front();
    EXPECT_EQ(fast.index, reference.index);
    EXPECT_EQ(fast.dist_sq, reference.dist_sq);
  }
  // Self-queries on the duplicated points are all-zero ties.
  for (std::size_t i = 0; i < std::min<std::size_t>(count, 8); ++i) {
    const std::span<const double> query{data.data() + i * dim, dim};
    const Neighbor fast = tree.nearest(query);
    const Neighbor reference = tree.k_nearest(query, 1).front();
    EXPECT_EQ(fast.index, reference.index);
    EXPECT_EQ(fast.dist_sq, reference.dist_sq);
  }
}

// A bounded query must return the unbounded query's index and dist_sq bits
// for any bound >= the nearest distance: nextafter of the distance to an
// arbitrary tree point (what a warm-started caller passes), exactly the
// nearest distance (the tightest legal bound), and +inf (the default).
TEST(KdTree, BoundedNearestIsExactlyUnbounded) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::uint64_t seed : {3u, 7u, 11u, 19u, 23u}) {
    sops::rng::Xoshiro256 engine(seed);
    const std::size_t count = 20 + sops::rng::uniform_index(engine, 300);
    auto data = random_points(count, 2, seed + 100);
    // Duplicate a tenth of the points (and snap some onto a coarse lattice)
    // so exact distance ties are common.
    for (std::size_t i = 0; i < count / 10; ++i) {
      const std::size_t from = sops::rng::uniform_index(engine, count);
      const std::size_t to = sops::rng::uniform_index(engine, count);
      data[2 * to] = data[2 * from];
      data[2 * to + 1] = data[2 * from + 1];
    }
    for (std::size_t i = 0; i < count; i += 7) {
      data[2 * i] = std::round(data[2 * i]);
      data[2 * i + 1] = std::round(data[2 * i + 1]);
    }
    const KdTree tree(data, 2);

    for (std::size_t q = 0; q < 200; ++q) {
      // Half the queries sit on tree points or lattice sites (tie-heavy).
      double query[2];
      if (q % 2 == 0) {
        const std::size_t on = sops::rng::uniform_index(engine, count);
        query[0] = data[2 * on];
        query[1] = data[2 * on + 1];
      } else {
        query[0] = std::round(sops::rng::uniform(engine, -10.0, 10.0));
        query[1] = sops::rng::uniform(engine, -10.0, 10.0);
      }
      const std::span<const double> view{query, 2};
      const Neighbor cold = tree.nearest(view);

      const std::size_t any = sops::rng::uniform_index(engine, count);
      const double dx = data[2 * any] - query[0];
      const double dy = data[2 * any + 1] - query[1];
      for (const double bound :
           {std::nextafter(dx * dx + dy * dy, inf), cold.dist_sq, inf}) {
        const Neighbor warm = tree.nearest(view, bound);
        EXPECT_EQ(warm.index, cold.index) << "seed=" << seed << " q=" << q;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(warm.dist_sq),
                  std::bit_cast<std::uint64_t>(cold.dist_sq))
            << "seed=" << seed << " q=" << q;
      }
    }
  }
}

TEST(KdTree, NearestRejectsBoundBelowNearestAndNonFiniteQuery) {
  const auto data = random_points(100, 2, 67);
  const KdTree tree(data, 2);
  const double query[2] = {0.25, -0.5};
  const Neighbor nn = tree.nearest({query, 2});
  ASSERT_GT(nn.dist_sq, 0.0);
  EXPECT_THROW((void)tree.nearest({query, 2}, nn.dist_sq / 2),
               sops::PreconditionError);
  const double nan_query[2] = {std::nan(""), 0.0};
  EXPECT_THROW((void)tree.nearest({nan_query, 2}), sops::PreconditionError);
  const auto data3 = random_points(100, 3, 71);
  const KdTree tree3(data3, 3);
  const double nan_query3[3] = {0.0, std::nan(""), 0.0};
  EXPECT_THROW((void)tree3.nearest({nan_query3, 3}), sops::PreconditionError);
}

std::vector<sops::geom::DimBlock> split_blocks(std::size_t dim) {
  if (dim == 1) return {{0, 1}};
  const std::size_t first = dim / 2;
  return {{0, first}, {first, dim - first}};
}

TEST_P(KdTreeVsBruteForce, KthBlockDistSqMatchesOracle) {
  const auto [count, dim] = GetParam();
  if (count < 4) return;  // need k-th neighbors to exist
  const auto data = random_points(count, dim, 57);
  const KdTree tree(data, dim);
  const BruteForceSearcher oracle(data, dim);
  const auto blocks = split_blocks(dim);

  for (const std::size_t k : {1u, 4u}) {
    if (count < k + 1) continue;
    for (std::size_t s = 0; s < std::min<std::size_t>(count, 15); ++s) {
      const std::span<const double> query{data.data() + s * dim, dim};
      EXPECT_EQ(tree.kth_block_dist_sq(query, k, blocks, s),
                oracle.kth_block_dist_sq(query, k, blocks, s))
          << "k=" << k << " s=" << s;
    }
  }
}

TEST_P(KdTreeVsBruteForce, CountWithinBlocksMatchesOracleAndBatch) {
  const auto [count, dim] = GetParam();
  const auto data = random_points(count, dim, 61);
  const KdTree tree(data, dim);
  const BruteForceSearcher oracle(data, dim);
  const auto blocks = split_blocks(dim);

  const std::size_t batch = std::min<std::size_t>(count, 4);
  if (batch == 0) return;
  std::vector<double> radii;
  std::vector<std::size_t> skips;
  std::vector<std::size_t> counts(batch, 0);
  for (std::size_t b = 0; b < batch; ++b) {
    radii.push_back(b == 0 ? 0.0 : 1.5 * static_cast<double>(b));  // incl. ε=0
    skips.push_back(b);
  }
  // Batched query over rows [0, batch): one descent, per-query counts.
  tree.count_within_blocks({data.data(), batch * dim}, radii, blocks, skips,
                           counts);
  for (std::size_t b = 0; b < batch; ++b) {
    const std::span<const double> query{data.data() + b * dim, dim};
    EXPECT_EQ(counts[b], tree.count_within_blocks(query, radii[b], blocks, b))
        << "b=" << b;
    EXPECT_EQ(counts[b], oracle.count_within_blocks(query, radii[b], blocks, b))
        << "b=" << b;
  }
}

TEST(KdTree, BlockedQueriesOnDuplicateCloud) {
  // All points identical: every pairwise blocked distance is exactly 0.
  std::vector<double> data(40 * 4, 1.5);
  const KdTree tree(data, 4);
  const BruteForceSearcher oracle(data, 4);
  const std::vector<sops::geom::DimBlock> blocks = {{0, 2}, {2, 2}};
  const std::span<const double> query{data.data(), 4};
  EXPECT_EQ(tree.kth_block_dist_sq(query, 4, blocks, 0),
            oracle.kth_block_dist_sq(query, 4, blocks, 0));
  EXPECT_EQ(tree.kth_block_dist_sq(query, 4, blocks, 0), 0.0);
  // Strict < never counts coincident points at ε = 0.
  EXPECT_EQ(tree.count_within_blocks(query, 0.0, blocks, 0), 0u);
  EXPECT_EQ(tree.count_within_blocks(query, 0.5, blocks, 0), 39u);
}

TEST(KdTree, WrongQueryDimensionThrows) {
  const auto data = random_points(10, 3, 51);
  const KdTree tree(data, 3);
  const double query[2] = {0.0, 0.0};
  EXPECT_THROW((void)tree.k_nearest({query, 2}, 1), sops::PreconditionError);
}

}  // namespace
