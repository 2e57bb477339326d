// KSG multi-information estimator tests: exact zero/positive behavior on
// synthetic ensembles with known mutual information, and bitwise equality of
// the symmetric pair passes with a per-sample reference at every width.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numbers>
#include <vector>

#include "info/digamma.hpp"
#include "info/entropy.hpp"
#include "info/ksg.hpp"
#include "rng/engine.hpp"
#include "rng/samplers.hpp"
#include "support/error.hpp"
#include "support/executor.hpp"

namespace {

using sops::info::Block;
using sops::info::block_dist_sq;
using sops::info::block_max_dist;
using sops::info::digamma_int;
using sops::info::gaussian_mi_bits;
using sops::info::KsgConvention;
using sops::info::KsgOptions;
using sops::info::multi_information_ksg;
using sops::info::SampleMatrix;
using sops::rng::Xoshiro256;

// m samples of n i.i.d. standard normal scalars.
SampleMatrix independent_gaussians(std::size_t m, std::size_t n,
                                   std::uint64_t seed) {
  Xoshiro256 engine(seed);
  SampleMatrix samples(m, n);
  for (std::size_t s = 0; s < m; ++s) {
    for (std::size_t d = 0; d < n; ++d) {
      samples(s, d) = sops::rng::standard_normal(engine);
    }
  }
  return samples;
}

// Bivariate normal with correlation rho, as two 1-D blocks.
SampleMatrix correlated_pair(std::size_t m, double rho, std::uint64_t seed) {
  Xoshiro256 engine(seed);
  SampleMatrix samples(m, 2);
  for (std::size_t s = 0; s < m; ++s) {
    const double x = sops::rng::standard_normal(engine);
    const double z = sops::rng::standard_normal(engine);
    samples(s, 0) = x;
    samples(s, 1) = rho * x + std::sqrt(1.0 - rho * rho) * z;
  }
  return samples;
}

TEST(Ksg, IndependentVariablesGiveNearZero) {
  const SampleMatrix samples = independent_gaussians(600, 4, 11);
  const double mi = multi_information_ksg(samples, 1);
  EXPECT_NEAR(mi, 0.0, 0.15);
}

class KsgGaussianMi : public ::testing::TestWithParam<double> {};

TEST_P(KsgGaussianMi, MatchesClosedFormWithinTolerance) {
  const double rho = GetParam();
  const SampleMatrix samples = correlated_pair(1500, rho, 31);
  KsgOptions options;
  options.k = 4;
  const double estimated = multi_information_ksg(samples, 1, options);
  const double expected = gaussian_mi_bits(rho);
  EXPECT_NEAR(estimated, expected, 0.12) << "rho=" << rho;
}

INSTANTIATE_TEST_SUITE_P(Correlations, KsgGaussianMi,
                         ::testing::Values(0.0, 0.3, 0.6, 0.9));

TEST(Ksg, MonotoneInCorrelation) {
  double previous = -1.0;
  for (const double rho : {0.0, 0.4, 0.7, 0.95}) {
    const SampleMatrix samples = correlated_pair(800, rho, 41);
    const double mi = multi_information_ksg(samples, 1);
    EXPECT_GT(mi, previous - 0.05) << rho;
    previous = mi;
  }
}

TEST(Ksg, MultivariateChainSumsPairwiseInformation) {
  // (X, Y=f(X), Z independent): I(X;Y;Z) = I(X;Y).
  const std::size_t m = 1000;
  Xoshiro256 engine(51);
  SampleMatrix samples(m, 3);
  const double rho = 0.8;
  for (std::size_t s = 0; s < m; ++s) {
    const double x = sops::rng::standard_normal(engine);
    samples(s, 0) = x;
    samples(s, 1) = rho * x + std::sqrt(1 - rho * rho) *
                                  sops::rng::standard_normal(engine);
    samples(s, 2) = sops::rng::standard_normal(engine);
  }
  const double mi3 = multi_information_ksg(samples, 1);
  const double expected = gaussian_mi_bits(rho);
  EXPECT_NEAR(mi3, expected, 0.17);
}

TEST(Ksg, TwoDimensionalBlocks) {
  // Two 2-D blocks where block 2 duplicates block 1 plus small noise:
  // high multi-information; independent blocks: near zero.
  const std::size_t m = 500;
  Xoshiro256 engine(61);
  SampleMatrix dependent(m, 4);
  SampleMatrix independent(m, 4);
  for (std::size_t s = 0; s < m; ++s) {
    for (std::size_t d = 0; d < 2; ++d) {
      const double v = sops::rng::standard_normal(engine);
      dependent(s, d) = v;
      dependent(s, d + 2) = v + 0.05 * sops::rng::standard_normal(engine);
      independent(s, d) = sops::rng::standard_normal(engine);
      independent(s, d + 2) = sops::rng::standard_normal(engine);
    }
  }
  const double mi_dependent = multi_information_ksg(dependent, 2);
  const double mi_independent = multi_information_ksg(independent, 2);
  EXPECT_GT(mi_dependent, 2.0);
  EXPECT_NEAR(mi_independent, 0.0, 0.2);
}

TEST(Ksg, InvariantUnderBlockOrder) {
  const SampleMatrix samples = correlated_pair(400, 0.7, 71);
  const std::vector<Block> forward{{0, 1}, {1, 1}};
  const std::vector<Block> reversed{{1, 1}, {0, 1}};
  EXPECT_DOUBLE_EQ(multi_information_ksg(samples, forward),
                   multi_information_ksg(samples, reversed));
}

TEST(Ksg, InvariantUnderRigidShiftOfABlock) {
  // Adding a constant to one marginal must not change the estimate
  // (the metric uses differences only).
  SampleMatrix samples = correlated_pair(400, 0.5, 81);
  const double base = multi_information_ksg(samples, 1);
  for (std::size_t s = 0; s < samples.count(); ++s) samples(s, 1) += 100.0;
  EXPECT_DOUBLE_EQ(multi_information_ksg(samples, 1), base);
}

TEST(Ksg, ThreadCountDoesNotChangeResult) {
  const SampleMatrix samples = correlated_pair(300, 0.6, 91);
  KsgOptions serial;
  serial.threads = 1;
  KsgOptions parallel;
  parallel.threads = 4;
  EXPECT_DOUBLE_EQ(multi_information_ksg(samples, 1, serial),
                   multi_information_ksg(samples, 1, parallel));
}

TEST(Ksg, ConventionsDifferByBoundedBias) {
  const SampleMatrix samples = correlated_pair(500, 0.6, 101);
  KsgOptions standard;
  standard.convention = KsgConvention::kStandard;
  KsgOptions literal;
  literal.convention = KsgConvention::kPaperLiteral;
  const double a = multi_information_ksg(samples, 1, standard);
  const double b = multi_information_ksg(samples, 1, literal);
  EXPECT_NE(a, b);
  EXPECT_NEAR(a, b, 1.0);  // small systematic offset, same signal
}

TEST(Ksg, SensitivityToKIsMild) {
  // Paper §5.3: "the estimate is not very sensitive for changes of k".
  const SampleMatrix samples = correlated_pair(1000, 0.7, 111);
  KsgOptions k2;
  k2.k = 2;
  KsgOptions k10;
  k10.k = 10;
  const double a = multi_information_ksg(samples, 1, k2);
  const double b = multi_information_ksg(samples, 1, k10);
  EXPECT_NEAR(a, b, 0.1);
}

TEST(Ksg, DuplicatedSamplesDoNotCrash) {
  // Exact ties in the metric (duplicated rows) must yield a finite value.
  SampleMatrix samples(20, 2);
  for (std::size_t s = 0; s < 20; ++s) {
    samples(s, 0) = static_cast<double>(s % 5);
    samples(s, 1) = static_cast<double>(s % 5);
  }
  const double mi = multi_information_ksg(samples, 1);
  EXPECT_TRUE(std::isfinite(mi));
}

TEST(Ksg, PreconditionsEnforced) {
  const SampleMatrix tiny = correlated_pair(4, 0.5, 121);
  KsgOptions options;
  options.k = 4;  // needs >= 5 samples
  EXPECT_THROW((void)multi_information_ksg(tiny, 1, options),
               sops::PreconditionError);

  const SampleMatrix samples = correlated_pair(50, 0.5, 131);
  const std::vector<Block> one_block{{0, 2}};
  EXPECT_THROW((void)multi_information_ksg(samples, one_block),
               sops::PreconditionError);

  const std::vector<Block> overlapping{{0, 2}, {1, 1}};
  EXPECT_THROW((void)multi_information_ksg(samples, overlapping),
               sops::PreconditionError);

  KsgOptions zero_k;
  zero_k.k = 0;
  EXPECT_THROW((void)multi_information_ksg(samples, 1, zero_k),
               sops::PreconditionError);
}

// The per-sample estimator the symmetric passes replaced, kept as the test
// oracle: full-row joint distances, nth_element for ε, then a strict-< scan
// of every other sample per block.
double reference_ksg(const SampleMatrix& samples, std::span<const Block> blocks,
                     std::size_t k, KsgConvention convention) {
  const std::size_t m = samples.count();
  const std::size_t n = blocks.size();
  std::vector<double> row;
  double mean_psi = 0.0;
  for (std::size_t s = 0; s < m; ++s) {
    row.clear();
    for (std::size_t j = 0; j < m; ++j) {
      if (j != s) row.push_back(block_max_dist(samples, s, j, blocks));
    }
    std::nth_element(row.begin(),
                     row.begin() + static_cast<std::ptrdiff_t>(k - 1),
                     row.end());
    const double eps = row[k - 1];
    const double eps_sq = eps * eps;
    double psi_sum = 0.0;
    for (const Block& block : blocks) {
      std::size_t c = 0;
      for (std::size_t j = 0; j < m; ++j) {
        if (j != s && block_dist_sq(samples, s, j, block) < eps_sq) ++c;
      }
      psi_sum += digamma_int(convention == KsgConvention::kStandard
                                 ? c + 1
                                 : std::max<std::size_t>(c, 1));
    }
    mean_psi += psi_sum;
  }
  mean_psi /= static_cast<double>(m);
  const double nats = digamma_int(k) +
                      (static_cast<double>(n) - 1.0) * digamma_int(m) - mean_psi;
  return nats * std::numbers::log2e;
}

enum class Fill {
  kGaussian,    // continuous, no ties
  kLattice,     // small integers: many equal distances
  kDuplicated,  // second half copies rows 0..2: ε = 0 for those rows
};

SampleMatrix fuzz_matrix(std::size_t m, std::size_t dim, Fill fill,
                         std::uint64_t seed) {
  Xoshiro256 engine(seed);
  SampleMatrix samples(m, dim);
  for (std::size_t s = 0; s < m; ++s) {
    for (std::size_t d = 0; d < dim; ++d) {
      const double v = sops::rng::standard_normal(engine);
      samples(s, d) = fill == Fill::kLattice ? std::floor(2.0 * v) : v;
    }
  }
  if (fill == Fill::kDuplicated) {
    for (std::size_t s = m / 2; s < m; ++s) {
      for (std::size_t d = 0; d < dim; ++d) samples(s, d) = samples(s % 3, d);
    }
  }
  return samples;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(Ksg, SymmetricPassMatchesPerSampleReferenceBitwise) {
  // Uniform scalars, uneven blocks listed out of offset order, and many
  // narrow blocks (the fig4 layout).
  const std::vector<std::vector<Block>> layouts = {
      {{0, 1}, {1, 1}},
      {{3, 1}, {0, 3}, {6, 2}, {4, 2}},
      sops::info::uniform_blocks(12, 2),
  };
  std::vector<std::unique_ptr<sops::support::TaskPool>> pools;
  for (std::size_t width = 2; width <= 5; ++width) {
    pools.push_back(std::make_unique<sops::support::TaskPool>(width));
  }
  std::size_t compared = 0;
  for (const std::uint64_t seed : {1u, 2u}) {
    for (const std::size_t k : {1u, 4u, 10u}) {
      for (const std::size_t m : {k + 1, k + 2, std::size_t{37}, 300 / k}) {
        for (const auto& blocks : layouts) {
          std::size_t dim = 0;
          for (const Block& b : blocks) dim += b.dim;
          for (const Fill fill :
               {Fill::kGaussian, Fill::kLattice, Fill::kDuplicated}) {
            const SampleMatrix samples =
                fuzz_matrix(m, dim, fill, seed * 1000 + m);
            for (const KsgConvention convention :
                 {KsgConvention::kStandard, KsgConvention::kPaperLiteral}) {
              const double expected =
                  reference_ksg(samples, blocks, k, convention);
              KsgOptions options;
              options.k = k;
              options.convention = convention;
              options.threads = 3;  // the transient-pool fallback
              const auto where = ::testing::Message()
                                 << "seed " << seed << " k " << k << " m "
                                 << m << " dim " << dim << " fill "
                                 << static_cast<int>(fill);
              EXPECT_TRUE(same_bits(
                  multi_information_ksg(samples, blocks, options), expected))
                  << where << " threads 3";
              options.executor = &sops::support::serial_executor();
              EXPECT_TRUE(same_bits(
                  multi_information_ksg(samples, blocks, options), expected))
                  << where << " width 1";
              for (const auto& pool : pools) {
                options.executor = &pool->executor();
                EXPECT_TRUE(same_bits(
                    multi_information_ksg(samples, blocks, options), expected))
                    << where << " width " << pool->width();
              }
              ++compared;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(compared, 2u * 3u * 4u * 3u * 3u * 2u);
}

TEST(Ksg, NonFiniteSamplesAreRejected) {
  // A NaN or ±inf coordinate used to give an arbitrary estimate (and
  // different ones per neighbor path) instead of an error.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    SampleMatrix samples = fuzz_matrix(60, 8, Fill::kGaussian, 141);
    samples(17, 5) = bad;
    EXPECT_THROW((void)multi_information_ksg(samples, 2),
                 sops::PreconditionError)
        << bad;
  }
}

}  // namespace
