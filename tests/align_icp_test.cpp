// ICP and correspondence tests: recovery of known isometries, type safety,
// and matching properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "align/icp.hpp"
#include "geom/kdtree.hpp"
#include "rng/samplers.hpp"
#include "support/error.hpp"

namespace {

using sops::align::align_icp;
using sops::align::Correspondence;
using sops::align::CorrespondenceRoute;
using sops::align::IcpOptions;
using sops::align::IcpReference;
using sops::align::IcpResult;
using sops::align::match_by_type;
using sops::geom::RigidTransform2;
using sops::geom::Vec2;
using sops::sim::TypeId;

constexpr double kPi = std::numbers::pi;

struct Cloud {
  std::vector<Vec2> points;
  std::vector<TypeId> types;
};

// Asymmetric multi-type cloud: ICP has a unique global optimum.
Cloud make_cloud(std::size_t n, std::size_t type_count, std::uint64_t seed) {
  sops::rng::Xoshiro256 engine(seed);
  Cloud cloud;
  for (std::size_t i = 0; i < n; ++i) {
    // Stretch x so the shape is rotationally asymmetric.
    cloud.points.push_back({sops::rng::uniform(engine, -6.0, 6.0),
                            sops::rng::uniform(engine, -2.0, 2.0)});
    cloud.types.push_back(static_cast<TypeId>(i % type_count));
  }
  return cloud;
}

// Aligns source onto a reference built from target, as align_ensemble does.
IcpResult align_onto(std::span<const Vec2> source,
                     std::span<const TypeId> source_types,
                     std::span<const Vec2> target,
                     std::span<const TypeId> target_types,
                     const IcpOptions& options = {}) {
  const IcpReference reference(target, target_types);
  return align_icp(source, source_types, reference, options);
}

class IcpRecovery : public ::testing::TestWithParam<double> {};

TEST_P(IcpRecovery, RecoversRotationOfSameCloud) {
  const double angle = GetParam();
  const Cloud target = make_cloud(40, 3, 5);
  const RigidTransform2 truth{angle, {1.5, -0.5}};
  const std::vector<Vec2> source = truth.inverse().apply(target.points);

  const IcpResult result =
      align_onto(source, target.types, target.points, target.types);
  EXPECT_LT(result.mean_squared_error, 1e-12);

  const auto moved = result.transform.apply(source);
  for (std::size_t i = 0; i < moved.size(); ++i) {
    EXPECT_NEAR(moved[i].x, target.points[i].x, 1e-6);
    EXPECT_NEAR(moved[i].y, target.points[i].y, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Angles, IcpRecovery,
                         ::testing::Values(0.0, 0.5, kPi / 2, 2.2, -1.3,
                                           kPi - 0.05));

TEST(Icp, RecoversUnderShuffledSourceOrder) {
  // ICP works with correspondence-free clouds: shuffle the source order.
  const Cloud target = make_cloud(30, 2, 7);
  const RigidTransform2 truth{0.8, {2.0, 1.0}};
  std::vector<Vec2> source = truth.inverse().apply(target.points);
  std::vector<TypeId> source_types = target.types;

  // Deterministic shuffle via index permutation.
  std::vector<std::size_t> perm(source.size());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  sops::rng::Xoshiro256 engine(11);
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[sops::rng::uniform_index(engine, i)]);
  }
  std::vector<Vec2> shuffled(source.size());
  std::vector<TypeId> shuffled_types(source.size());
  for (std::size_t i = 0; i < source.size(); ++i) {
    shuffled[i] = source[perm[i]];
    shuffled_types[i] = source_types[perm[i]];
  }

  const IcpResult result =
      align_onto(shuffled, shuffled_types, target.points, target.types);
  EXPECT_LT(result.mean_squared_error, 1e-10);
}

TEST(Icp, RobustToNoise) {
  const Cloud target = make_cloud(60, 2, 13);
  const RigidTransform2 truth{1.1, {0.5, 0.5}};
  std::vector<Vec2> source = truth.inverse().apply(target.points);
  sops::rng::Xoshiro256 engine(17);
  for (Vec2& p : source) p += sops::rng::normal_vec2(engine, 0.02);

  const IcpResult result =
      align_onto(source, target.types, target.points, target.types);
  EXPECT_LT(result.mean_squared_error, 0.01);
}

TEST(Icp, NeverMatchesAcrossTypes) {
  // Target: type 0 on a ring of radius 1, type 1 on a ring of radius 3.
  // Source: the radii are swapped between the types. Ignoring types, a
  // perfect match (MSE 0) exists via the identity; respecting types, NO
  // isometry can map a radius-3 ring onto a radius-1 ring, so the aligned
  // same-type MSE must stay of order (3-1)^2. This is rotation-proof: every
  // restart faces the same obstruction.
  std::vector<Vec2> target;
  std::vector<Vec2> source;
  std::vector<TypeId> types;
  for (int i = 0; i < 8; ++i) {
    const double a = 2.0 * kPi * i / 8.0;
    const Vec2 unit{std::cos(a), std::sin(a)};
    target.push_back(unit * 1.0);
    source.push_back(unit * 3.0);
    types.push_back(0);
    target.push_back(unit * 3.0);
    source.push_back(unit * 1.0);
    types.push_back(1);
  }
  const IcpResult result = align_onto(source, types, target, types);
  EXPECT_GT(result.mean_squared_error, 1.0);
}

TEST(Icp, MultiRestartEscapesLocalOptimum) {
  // A near-symmetric shape (square-ish ring) with a small asymmetry: plain
  // ICP from angle 0 may lock into the wrong lobe; restarts must find the
  // global optimum.
  Cloud target;
  for (int i = 0; i < 12; ++i) {
    const double a = 2.0 * kPi * i / 12.0;
    target.points.push_back({std::cos(a) * (i == 0 ? 1.4 : 1.0),
                             std::sin(a) * (i == 3 ? 1.4 : 1.0)});
    target.types.push_back(0);
  }
  const RigidTransform2 truth{kPi, {0, 0}};  // half turn
  const std::vector<Vec2> source = truth.inverse().apply(target.points);

  IcpOptions options;
  options.rotation_restarts = 16;
  const IcpResult result =
      align_onto(source, target.types, target.points, target.types, options);
  EXPECT_LT(result.mean_squared_error, 1e-10);
}

TEST(Icp, PreconditionsEnforced) {
  const Cloud cloud = make_cloud(10, 2, 19);
  EXPECT_THROW((void)align_onto({}, {}, cloud.points, cloud.types),
               sops::PreconditionError);

  // Histogram mismatch: different type counts.
  std::vector<TypeId> wrong_types = cloud.types;
  wrong_types[0] = 1 - wrong_types[0];
  EXPECT_THROW(
      (void)align_onto(cloud.points, wrong_types, cloud.points, cloud.types),
      sops::PreconditionError);

  IcpOptions bad;
  bad.rotation_restarts = 0;
  EXPECT_THROW((void)align_onto(cloud.points, cloud.types, cloud.points,
                                cloud.types, bad),
               sops::PreconditionError);

  // Options that would make ICP silently wrong: no iteration leaves every
  // restart at MSE +inf (the identity comes back), and a NaN tolerance never
  // stops a descent. Each fails by name.
  const IcpReference reference(cloud.points, cloud.types);
  const auto rejects = [&](const IcpOptions& options, const char* message) {
    try {
      (void)align_icp(cloud.points, cloud.types, reference, options);
      ADD_FAILURE() << "align_icp accepted: " << message;
    } catch (const sops::PreconditionError& e) {
      EXPECT_STREQ(e.what(), message);
    }
  };
  IcpOptions no_iterations;
  no_iterations.max_iterations = 0;
  rejects(no_iterations, "align_icp: need at least one iteration");
  for (const double tolerance : {std::nan(""), -1e-9}) {
    IcpOptions bad_tolerance;
    bad_tolerance.convergence_tolerance = tolerance;
    rejects(bad_tolerance, "align_icp: convergence tolerance must be >= 0");
  }
  // Size mismatch against the reference.
  const std::span<const Vec2> fewer(cloud.points.data(), cloud.points.size() - 2);
  const std::span<const TypeId> fewer_types(cloud.types.data(),
                                            cloud.types.size() - 2);
  EXPECT_THROW((void)align_icp(fewer, fewer_types, reference),
               sops::PreconditionError);
}

TEST(Icp, NonFiniteCoordinatesRejectedByName) {
  const Cloud cloud = make_cloud(4, 2, 19);
  for (const double bad : {std::nan(""), std::numeric_limits<double>::infinity()}) {
    std::vector<Vec2> broken = cloud.points;
    broken[2].y = bad;
    try {
      (void)align_onto(broken, cloud.types, cloud.points, cloud.types);
      ADD_FAILURE() << "align_icp accepted a non-finite source";
    } catch (const sops::PreconditionError& e) {
      EXPECT_STREQ(e.what(), "align_icp: non-finite source coordinate");
    }
    EXPECT_THROW(
        (void)align_onto(cloud.points, cloud.types, broken, cloud.types),
        sops::PreconditionError);
    try {
      (void)match_by_type(broken, cloud.types, cloud.points, cloud.types);
      ADD_FAILURE() << "match_by_type accepted a non-finite source";
    } catch (const sops::PreconditionError& e) {
      EXPECT_STREQ(e.what(), "match_by_type: non-finite source coordinate");
    }
    EXPECT_THROW(
        (void)match_by_type(cloud.points, cloud.types, broken, cloud.types),
        sops::PreconditionError);
  }
}

TEST(MatchByType, IdentityOnEqualClouds) {
  const Cloud cloud = make_cloud(25, 3, 23);
  const auto match =
      match_by_type(cloud.points, cloud.types, cloud.points, cloud.types);
  for (std::size_t i = 0; i < match.size(); ++i) EXPECT_EQ(match[i], i);
}

TEST(MatchByType, IsAPermutation) {
  const Cloud a = make_cloud(30, 2, 29);
  Cloud b = make_cloud(30, 2, 31);
  b.types = a.types;  // same histogram, different positions
  const auto match = match_by_type(a.points, a.types, b.points, b.types);
  std::vector<char> used(match.size(), 0);
  for (const std::size_t t : match) {
    ASSERT_LT(t, match.size());
    EXPECT_FALSE(used[t]);
    used[t] = 1;
  }
}

TEST(MatchByType, PreservesTypes) {
  const Cloud a = make_cloud(24, 3, 37);
  Cloud b = make_cloud(24, 3, 41);
  b.types = a.types;
  const auto match = match_by_type(a.points, a.types, b.points, b.types);
  for (std::size_t i = 0; i < match.size(); ++i) {
    EXPECT_EQ(a.types[i], b.types[match[i]]);
  }
}

TEST(MatchByType, RecoversAppliedPermutation) {
  // Permute a cloud within types; matching must invert the permutation.
  const Cloud a = make_cloud(20, 2, 43);
  std::vector<std::size_t> perm(a.points.size());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  // Swap two same-type pairs.
  std::swap(perm[0], perm[2]);   // both type 0 (i % 2 pattern)
  std::swap(perm[1], perm[3]);   // both type 1
  std::vector<Vec2> b_points(a.points.size());
  for (std::size_t i = 0; i < perm.size(); ++i) b_points[perm[i]] = a.points[i];

  const auto match = match_by_type(a.points, a.types, b_points, a.types);
  for (std::size_t i = 0; i < perm.size(); ++i) EXPECT_EQ(match[i], perm[i]);
}

// The original greedy matcher, kept as the test oracle: materialize every
// same-type pair, sort by (distance², source, target), commit greedily.
// The production lazy-heap matcher must reproduce it exactly — ties and
// all — on any input.
std::vector<std::size_t> sorted_greedy_oracle(
    std::span<const Vec2> source, std::span<const TypeId> source_types,
    std::span<const Vec2> target, std::span<const TypeId> target_types) {
  struct Pair {
    double dist_sq;
    std::size_t s;
    std::size_t t;
  };
  std::vector<Pair> pairs;
  for (std::size_t s = 0; s < source.size(); ++s) {
    for (std::size_t t = 0; t < target.size(); ++t) {
      if (source_types[s] != target_types[t]) continue;
      pairs.push_back({sops::geom::dist_sq(source[s], target[t]), s, t});
    }
  }
  std::sort(pairs.begin(), pairs.end(), [](const Pair& a, const Pair& b) {
    if (a.dist_sq != b.dist_sq) return a.dist_sq < b.dist_sq;
    if (a.s != b.s) return a.s < b.s;
    return a.t < b.t;
  });
  std::vector<std::size_t> match(source.size(), source.size());
  std::vector<char> source_used(source.size(), 0);
  std::vector<char> target_used(target.size(), 0);
  for (const Pair& pair : pairs) {
    if (source_used[pair.s] || target_used[pair.t]) continue;
    match[pair.s] = pair.t;
    source_used[pair.s] = 1;
    target_used[pair.t] = 1;
  }
  return match;
}

TEST(MatchByType, MatchesSortedGreedyOracleOnFuzzedClouds) {
  for (const std::uint64_t seed : {3u, 11u, 29u, 71u}) {
    const Cloud a = make_cloud(60, 3, seed);
    const Cloud b = make_cloud(60, 3, seed + 1000);
    EXPECT_EQ(match_by_type(a.points, a.types, b.points, b.types),
              sorted_greedy_oracle(a.points, a.types, b.points, b.types))
        << "seed=" << seed;
  }
}

TEST(MatchByType, MatchesOracleWithDuplicatePointTies) {
  // Coincident points on both sides: many exactly-tied pair distances, so
  // only identical (dist, s, t) tie-breaking reproduces the oracle.
  Cloud a = make_cloud(24, 2, 7);
  Cloud b = make_cloud(24, 2, 8);
  for (std::size_t i = 0; i < 8; ++i) {
    a.points[i] = {1.0, -1.0};
    b.points[i + 4] = {1.25, -1.0};
    // Types keep the i % 2 pattern, so duplicates span both types.
  }
  EXPECT_EQ(match_by_type(a.points, a.types, b.points, b.types),
            sorted_greedy_oracle(a.points, a.types, b.points, b.types));
}

// Cold-start ICP oracle: align_icp's descent with every correspondence query
// unbounded, over per-type trees built exactly like the production ones (so
// kd-tree visit order, and with it exact-tie resolution, is the same).
// `warm_ties` counts queries after each restart's first iteration whose
// nearest distance is attained by two or more targets — the queries where a
// warm-started descent could pick a different winner if it were wrong.
// `tie_fallbacks` counts the tied queries (any iteration) that `reference`
// answers through its tie fallback to the tree.
IcpResult cold_icp_oracle(std::span<const Vec2> source,
                          std::span<const TypeId> types,
                          std::span<const Vec2> target,
                          const IcpReference& reference,
                          const IcpOptions& options, std::size_t& warm_ties,
                          std::size_t& tie_fallbacks) {
  std::size_t type_count = 0;
  for (const TypeId t : types) type_count = std::max<std::size_t>(type_count, t + 1);
  std::vector<std::vector<double>> coords(type_count);
  std::vector<std::vector<std::size_t>> index(type_count);
  for (std::size_t i = 0; i < target.size(); ++i) {
    coords[types[i]].push_back(target[i].x);
    coords[types[i]].push_back(target[i].y);
    index[types[i]].push_back(i);
  }
  std::vector<sops::geom::KdTree> trees;
  for (std::size_t t = 0; t < type_count; ++t) trees.emplace_back(coords[t], 2);

  IcpResult best;
  best.mean_squared_error = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < options.rotation_restarts; ++r) {
    const double angle = 2.0 * kPi * static_cast<double>(r) /
                         static_cast<double>(options.rotation_restarts);
    const Vec2 c = sops::geom::centroid(source);
    RigidTransform2 current{angle, c - sops::geom::rotated(c, angle)};
    IcpResult result;
    result.mean_squared_error = std::numeric_limits<double>::infinity();
    std::vector<Vec2> matched(source.size());
    for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
      result.iterations = iter + 1;
      double mse = 0.0;
      for (std::size_t i = 0; i < source.size(); ++i) {
        const Vec2 moved = current.apply(source[i]);
        const double query[2] = {moved.x, moved.y};
        const auto& tree = trees[types[i]];
        const std::size_t nn = index[types[i]][tree.nearest({query, 2}).index];
        const auto two = tree.k_nearest({query, 2}, 2);
        if (two.size() == 2 && two[0].dist_sq == two[1].dist_sq) {
          if (iter > 0) ++warm_ties;
          if (reference.nearest(moved, types[i]).route ==
              CorrespondenceRoute::kTie) {
            ++tie_fallbacks;
          }
        }
        matched[i] = target[nn];
        mse += sops::geom::dist_sq(moved, matched[i]);
      }
      mse /= static_cast<double>(source.size());
      if (mse >= result.mean_squared_error - options.convergence_tolerance) {
        result.mean_squared_error = std::min(mse, result.mean_squared_error);
        break;
      }
      result.mean_squared_error = mse;
      current = sops::geom::fit_rigid(source, matched);
    }
    result.transform = current;
    if (result.mean_squared_error < best.mean_squared_error) best = result;
  }
  return best;
}

// Mirror-symmetric (about the x axis) multi-type rings on dyadic
// coordinates. Every point is mirrored, so the on-axis ones become
// coincident same-type pairs that tie exactly for any query, in every
// iteration; and while the transform is still exact, a query on the axis is
// exactly equidistant from each mirror pair.
Cloud mirror_rings(std::size_t type_count, double offset) {
  Cloud cloud;
  for (std::size_t t = 0; t < type_count; ++t) {
    // Three concentric rings per type: 36 points, so each per-type tree
    // spans several leaves and the bound has subtrees to prune.
    for (const double scale : {1.0, 1.5, 2.0}) {
      const double r = scale * (1.0 + static_cast<double>(t));
      const Vec2 upper[] = {{r, 0.0},  {0.75 * r, 0.5 * r},  {0.0, r},
                            {-r, 0.0}, {-0.75 * r, 0.5 * r}, {0.25 * r + offset, 0.0}};
      for (const Vec2 p : upper) {
        for (const Vec2 q : {p, Vec2{p.x, -p.y}}) {
          cloud.points.push_back(q);
          cloud.types.push_back(static_cast<TypeId>(t));
        }
      }
    }
  }
  return cloud;
}

TEST(Icp, WarmStartedDescentMatchesColdOracleUnderTies) {
  std::size_t total_warm_ties = 0;
  std::size_t total_tie_fallbacks = 0;
  for (const double offset : {0.0, 0.125, 0.5}) {
    const Cloud target = mirror_rings(3, offset);
    const IcpReference reference(target.points, target.types);
    for (const double shift : {0.0, 0.25, 0.5, 1.0}) {
      // Source: the rings slid along the mirror axis, so moved points stay
      // on it (exactly) while correspondences are ambiguous.
      std::vector<Vec2> source = target.points;
      for (Vec2& p : source) p.x += shift;
      for (const std::size_t restarts : {std::size_t{1}, std::size_t{8}}) {
        IcpOptions options;
        options.rotation_restarts = restarts;
        std::size_t warm_ties = 0;
        const IcpResult cold =
            cold_icp_oracle(source, target.types, target.points, reference,
                            options, warm_ties, total_tie_fallbacks);
        total_warm_ties += warm_ties;
        const IcpResult warm =
            align_icp(source, target.types, reference, options);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(warm.transform.angle),
                  std::bit_cast<std::uint64_t>(cold.transform.angle));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(warm.transform.translation.x),
                  std::bit_cast<std::uint64_t>(cold.transform.translation.x));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(warm.transform.translation.y),
                  std::bit_cast<std::uint64_t>(cold.transform.translation.y));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(warm.mean_squared_error),
                  std::bit_cast<std::uint64_t>(cold.mean_squared_error));
        EXPECT_EQ(warm.iterations, cold.iterations);
      }
    }
  }
  // The geometry must actually exercise tied warm-started queries, and
  // tied queries inside the grid must reach the reference's tie fallback.
  EXPECT_GT(total_warm_ties, 0u);
  EXPECT_GT(total_tie_fallbacks, 0u);
}

// A descent that reaches max_iterations returns the transform fitted after
// its last evaluated MSE, so the pair (transform, MSE) is one fit apart.
// Pinned at max_iterations = 1 with the identity start: the MSE is that of
// the unmoved source, the transform the first fit to its correspondences.
TEST(Icp, IterationCapReturnsTheFinalFitWithItsOwnMse) {
  const Cloud target = make_cloud(40, 3, 5);
  const std::vector<Vec2> source =
      RigidTransform2{0.3, {0.4, -0.2}}.apply(target.points);
  const IcpReference reference(target.points, target.types);
  IcpOptions options;
  options.max_iterations = 1;
  options.rotation_restarts = 1;  // initial angle 0: moved == source
  const IcpResult result = align_icp(source, target.types, reference, options);

  // The one iteration: match the unmoved source, fit.
  std::vector<Vec2> matched(source.size());
  double first_mse = 0.0;
  for (std::size_t i = 0; i < source.size(); ++i) {
    matched[i] = reference.nearest(source[i], target.types[i]).point;
    first_mse += sops::geom::dist_sq(source[i], matched[i]);
  }
  first_mse /= static_cast<double>(source.size());
  const RigidTransform2 fit = sops::geom::fit_rigid(source, matched);
  // That fit's own MSE, evaluated as the descent does.
  double fit_mse = 0.0;
  for (std::size_t i = 0; i < source.size(); ++i) {
    const Vec2 moved = fit.apply(source[i]);
    fit_mse += sops::geom::dist_sq(
        moved, reference.nearest(moved, target.types[i]).point);
  }
  fit_mse /= static_cast<double>(source.size());

  EXPECT_EQ(result.iterations, 1u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.transform.angle),
            std::bit_cast<std::uint64_t>(fit.angle));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.transform.translation.x),
            std::bit_cast<std::uint64_t>(fit.translation.x));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.transform.translation.y),
            std::bit_cast<std::uint64_t>(fit.translation.y));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.mean_squared_error),
            std::bit_cast<std::uint64_t>(fit_mse));
  // The fit improved on the unmoved source, so the two MSEs differ: the
  // result really reports the final fit's, not the last pre-fit evaluation.
  EXPECT_LT(fit_mse, first_mse);
}

// Square and sheared-triangular lattices on dyadic coordinates: lattice
// midpoints, cell-edge and corner queries tie exactly between neighbors.
Cloud lattice(std::size_t side, bool triangular, std::size_t type_count) {
  Cloud cloud;
  for (std::size_t j = 0; j < side; ++j) {
    for (std::size_t i = 0; i < side; ++i) {
      const double shift = triangular && j % 2 == 1 ? 0.5 : 0.0;
      cloud.points.push_back({static_cast<double>(i) + shift,
                              static_cast<double>(j) * (triangular ? 0.875 : 1.0)});
      cloud.types.push_back(static_cast<TypeId>((i + j) % type_count));
    }
  }
  return cloud;
}

struct RouteCounts {
  std::size_t grid = 0;
  std::size_t uncovered = 0;
  std::size_t tie = 0;
};

// Every query's IcpReference answer against KdTree::nearest over the same
// per-type points (built in the reference's order, ascending target index):
// the same index — exact ties included — or, for a NaN query, the same
// named error. Each query also runs with a bound (its distance to an
// arbitrary same-type point), which the answer must not depend on.
void expect_tree_parity(const Cloud& cloud, std::span<const Vec2> queries,
                        RouteCounts& routes) {
  const IcpReference reference(cloud.points, cloud.types);
  const std::size_t type_count = reference.type_counts().size();
  std::vector<std::vector<double>> coords(type_count);
  std::vector<std::vector<std::size_t>> index(type_count);
  for (std::size_t i = 0; i < cloud.points.size(); ++i) {
    coords[cloud.types[i]].push_back(cloud.points[i].x);
    coords[cloud.types[i]].push_back(cloud.points[i].y);
    index[cloud.types[i]].push_back(i);
  }
  for (std::size_t type = 0; type < type_count; ++type) {
    if (index[type].empty()) continue;
    const sops::geom::KdTree tree(coords[type], 2);
    const auto t = static_cast<TypeId>(type);
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      const Vec2 q = queries[qi];
      const double query[2] = {q.x, q.y};
      if (std::isnan(q.x) || std::isnan(q.y)) {
        std::string tree_error;
        try {
          (void)tree.nearest({query, 2});
        } catch (const sops::PreconditionError& e) {
          tree_error = e.what();
        }
        try {
          (void)reference.nearest(q, t);
          ADD_FAILURE() << "NaN query answered";
        } catch (const sops::PreconditionError& e) {
          EXPECT_EQ(e.what(), tree_error);
        }
        continue;
      }
      const std::size_t expected = index[type][tree.nearest({query, 2}).index];
      const Correspondence got = reference.nearest(q, t);
      ASSERT_EQ(got.index, expected)
          << "type " << type << " query (" << q.x << ", " << q.y << ")";
      EXPECT_EQ(got.point, cloud.points[expected]);
      const Vec2 other = cloud.points[index[type][qi % index[type].size()]];
      EXPECT_EQ(reference.nearest(q, t, sops::geom::dist_sq(q, other)).index,
                expected);
      switch (got.route) {
        case CorrespondenceRoute::kGrid: ++routes.grid; break;
        case CorrespondenceRoute::kUncovered: ++routes.uncovered; break;
        case CorrespondenceRoute::kTie: ++routes.tie; break;
      }
    }
  }
}

// Queries for `cloud`: random ones over (and past) its box, every point
// itself, lattice midpoints, exact grid lines (cell edges and corners) of
// every type, far-away points, and NaN.
std::vector<Vec2> parity_queries(const Cloud& cloud, std::uint64_t seed) {
  double x_lo = cloud.points[0].x, x_hi = x_lo;
  double y_lo = cloud.points[0].y, y_hi = y_lo;
  for (const Vec2 p : cloud.points) {
    x_lo = std::min(x_lo, p.x);
    x_hi = std::max(x_hi, p.x);
    y_lo = std::min(y_lo, p.y);
    y_hi = std::max(y_hi, p.y);
  }
  const double margin = 0.5 * std::max({x_hi - x_lo, y_hi - y_lo, 1.0});
  sops::rng::Xoshiro256 engine(seed);
  std::vector<Vec2> queries;
  for (int i = 0; i < 400; ++i) {
    queries.push_back({sops::rng::uniform(engine, x_lo - margin, x_hi + margin),
                       sops::rng::uniform(engine, y_lo - margin, y_hi + margin)});
  }
  for (std::size_t i = 0; i < cloud.points.size(); ++i) {
    const Vec2 p = cloud.points[i];
    const Vec2 q = cloud.points[(i * 7 + 1) % cloud.points.size()];
    queries.push_back(p);
    queries.push_back({0.5 * (p.x + q.x), 0.5 * (p.y + q.y)});
    queries.push_back({p.x + 0.5, p.y});
    queries.push_back({p.x, p.y + 0.5});
  }
  const IcpReference reference(cloud.points, cloud.types);
  for (std::size_t type = 0; type < reference.type_counts().size(); ++type) {
    const IcpReference::Grid grid = reference.grid(static_cast<TypeId>(type));
    for (std::uint32_t c = 0; c <= grid.columns; c += 1 + grid.columns / 8) {
      for (std::uint32_t r = 0; r <= grid.rows; r += 1 + grid.rows / 8) {
        const double x = grid.origin.x + c * grid.cell_size;
        const double y = grid.origin.y + r * grid.cell_size;
        queries.push_back({x, y});                          // corner
        queries.push_back({x, y + 0.5 * grid.cell_size});   // vertical edge
        queries.push_back({x + 0.5 * grid.cell_size, y});   // horizontal edge
        queries.push_back({std::nextafter(x, -1e300), std::nextafter(y, 1e300)});
      }
    }
  }
  queries.push_back({x_lo - 1e6, y_lo});
  queries.push_back({x_hi + 1e3, y_hi + 1e3});
  queries.push_back({0.5 * (x_lo + x_hi), -1e12});
  queries.push_back({std::nan(""), y_lo});
  queries.push_back({x_lo, std::nan("")});
  return queries;
}

TEST(IcpReference, MatchesKdTreeOnFuzzedClouds) {
  RouteCounts routes;
  std::vector<Cloud> clouds;
  clouds.push_back(make_cloud(300, 3, 51));
  clouds.push_back(make_cloud(40, 1, 52));
  clouds.push_back(lattice(12, false, 1));
  clouds.push_back(lattice(12, false, 2));
  clouds.push_back(lattice(12, true, 1));
  clouds.push_back(lattice(13, true, 3));
  {
    // Duplicates, and a type (2) with a single point.
    Cloud dup = make_cloud(60, 2, 53);
    for (std::size_t i = 0; i < 20; i += 2) dup.points[i + 20] = dup.points[i];
    dup.points.push_back({0.25, 0.75});
    dup.types.push_back(2);
    clouds.push_back(dup);
    // A type whose points all coincide.
    Cloud same = make_cloud(30, 2, 54);
    for (std::size_t i = 0; i < same.points.size(); i += 2) same.points[i] = {1.0, 1.0};
    clouds.push_back(same);
  }
  {
    // Collinear: horizontal, vertical and diagonal lines.
    Cloud line;
    for (std::size_t i = 0; i < 40; ++i) {
      const double s = 0.25 * static_cast<double>(i);
      line.points.push_back({s, 1.5});
      line.types.push_back(0);
      line.points.push_back({-2.0, s});
      line.types.push_back(1);
      line.points.push_back({s, s});
      line.types.push_back(2);
    }
    clouds.push_back(line);
  }
  // Far from the origin: rounding scales with the coordinates, not the
  // spacing. The largest offset leaves the grid too coarse to use.
  for (const double offset : {1e6, 3e9, 1e13}) {
    for (Cloud cloud : {make_cloud(200, 2, 55), lattice(10, true, 2)}) {
      for (Vec2& p : cloud.points) p += Vec2{offset, -offset};
      clouds.push_back(cloud);
    }
  }
  for (std::size_t c = 0; c < clouds.size(); ++c) {
    SCOPED_TRACE(c);
    const std::vector<Vec2> queries = parity_queries(clouds[c], 100 + c);
    expect_tree_parity(clouds[c], queries, routes);
  }
  // Every route must be exercised.
  EXPECT_GT(routes.grid, 0u);
  EXPECT_GT(routes.uncovered, 0u);
  EXPECT_GT(routes.tie, 0u);
}

TEST(IcpReference, PreconditionsEnforced) {
  const Cloud cloud = make_cloud(6, 2, 57);
  EXPECT_THROW((IcpReference{{}, {}}), sops::PreconditionError);
  EXPECT_THROW((IcpReference{cloud.points, std::span<const TypeId>(
                                               cloud.types.data(), 5)}),
               sops::PreconditionError);
  std::vector<Vec2> broken = cloud.points;
  broken[3].x = std::numeric_limits<double>::infinity();
  try {
    const IcpReference reference(broken, cloud.types);
    ADD_FAILURE() << "IcpReference accepted a non-finite target";
  } catch (const sops::PreconditionError& e) {
    EXPECT_STREQ(e.what(), "IcpReference: non-finite target coordinate");
  }
  const IcpReference reference(cloud.points, cloud.types);
  EXPECT_THROW((void)reference.nearest({0.0, 0.0}, 2), sops::PreconditionError);
}

TEST(MatchByType, MismatchedHistogramsThrow) {
  const std::vector<Vec2> points{{0, 0}, {1, 1}};
  const std::vector<TypeId> a{0, 0};
  const std::vector<TypeId> b{0, 1};
  EXPECT_THROW((void)match_by_type(points, a, points, b),
               sops::PreconditionError);
}

}  // namespace
