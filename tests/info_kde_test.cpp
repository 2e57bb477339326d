// KDE multi-information tests (the paper's slow/high-variance baseline).
#include <gtest/gtest.h>

#include <cmath>

#include "info/entropy.hpp"
#include "info/kde.hpp"
#include "rng/engine.hpp"
#include "rng/samplers.hpp"
#include "support/error.hpp"
#include "support/executor.hpp"

namespace {

using sops::info::Block;
using sops::info::gaussian_mi_bits;
using sops::info::KdeOptions;
using sops::info::kde_log2_density;
using sops::info::multi_information_kde;
using sops::info::SampleMatrix;
using sops::rng::Xoshiro256;

SampleMatrix correlated_pair(std::size_t m, double rho, std::uint64_t seed) {
  Xoshiro256 engine(seed);
  SampleMatrix samples(m, 2);
  for (std::size_t s = 0; s < m; ++s) {
    const double x = sops::rng::standard_normal(engine);
    samples(s, 0) = x;
    samples(s, 1) = rho * x + std::sqrt(1 - rho * rho) *
                                  sops::rng::standard_normal(engine);
  }
  return samples;
}

TEST(KdeDensity, IntegratesToRoughlyOne) {
  // Mean density over samples of a standard normal ≈ E[p(X)] = 1/(2√π).
  Xoshiro256 engine(3);
  SampleMatrix samples(1500, 1);
  for (std::size_t s = 0; s < 1500; ++s) {
    samples(s, 0) = sops::rng::standard_normal(engine);
  }
  const auto log_density = kde_log2_density(samples, Block{0, 1});
  double mean_density = 0.0;
  for (const double v : log_density) mean_density += std::exp2(v);
  mean_density /= static_cast<double>(log_density.size());
  EXPECT_NEAR(mean_density, 1.0 / (2.0 * std::sqrt(std::numbers::pi)), 0.02);
}

TEST(KdeDensity, HigherAtTheMode) {
  Xoshiro256 engine(5);
  SampleMatrix samples(500, 1);
  for (std::size_t s = 0; s < 500; ++s) {
    samples(s, 0) = sops::rng::standard_normal(engine);
  }
  // Compare the density at the sample nearest 0 and nearest 2.5.
  std::size_t near_mode = 0;
  std::size_t near_tail = 0;
  for (std::size_t s = 0; s < 500; ++s) {
    if (std::abs(samples(s, 0)) < std::abs(samples(near_mode, 0))) near_mode = s;
    if (std::abs(samples(s, 0) - 2.5) < std::abs(samples(near_tail, 0) - 2.5)) {
      near_tail = s;
    }
  }
  const auto log_density = kde_log2_density(samples, Block{0, 1});
  EXPECT_GT(log_density[near_mode], log_density[near_tail]);
}

TEST(KdeMi, IndependentNearZero) {
  Xoshiro256 engine(7);
  SampleMatrix samples(800, 2);
  for (std::size_t s = 0; s < 800; ++s) {
    samples(s, 0) = sops::rng::standard_normal(engine);
    samples(s, 1) = sops::rng::standard_normal(engine);
  }
  const std::vector<Block> blocks{{0, 1}, {1, 1}};
  EXPECT_NEAR(multi_information_kde(samples, blocks), 0.0, 0.15);
}

class KdeGaussianMi : public ::testing::TestWithParam<double> {};

TEST_P(KdeGaussianMi, TracksClosedFormLoosely) {
  // KDE MI is biased (bandwidth smoothing); require the right order and
  // rough magnitude rather than tight agreement — the tight estimator is
  // KSG, which is the point of the paper's comparison.
  const double rho = GetParam();
  const SampleMatrix samples = correlated_pair(1000, rho, 11);
  const std::vector<Block> blocks{{0, 1}, {1, 1}};
  const double estimated = multi_information_kde(samples, blocks);
  const double expected = gaussian_mi_bits(rho);
  EXPECT_NEAR(estimated, expected, 0.25 + 0.3 * expected) << rho;
}

INSTANTIATE_TEST_SUITE_P(Correlations, KdeGaussianMi,
                         ::testing::Values(0.3, 0.6, 0.9));

TEST(KdeMi, MonotoneInCorrelation) {
  double previous = -1.0;
  for (const double rho : {0.0, 0.5, 0.9}) {
    const SampleMatrix samples = correlated_pair(600, rho, 13);
    const std::vector<Block> blocks{{0, 1}, {1, 1}};
    const double mi = multi_information_kde(samples, blocks);
    EXPECT_GT(mi, previous) << rho;
    previous = mi;
  }
}

TEST(KdeMi, DegenerateConstantBlockStaysFinite) {
  // A zero-variance marginal gets a nominal bandwidth; the estimate is then
  // biased (the joint and marginal normalizations no longer cancel) but must
  // remain finite — no NaN/Inf from log(0).
  SampleMatrix samples(100, 2);
  Xoshiro256 engine(17);
  for (std::size_t s = 0; s < 100; ++s) {
    samples(s, 0) = sops::rng::standard_normal(engine);
    samples(s, 1) = 42.0;  // constant marginal
  }
  const std::vector<Block> blocks{{0, 1}, {1, 1}};
  EXPECT_TRUE(std::isfinite(multi_information_kde(samples, blocks)));
}

TEST(KdeMi, PreconditionsEnforced) {
  SampleMatrix samples(1, 2);
  const std::vector<Block> blocks{{0, 1}, {1, 1}};
  EXPECT_THROW((void)multi_information_kde(samples, blocks),
               sops::PreconditionError);

  SampleMatrix ok = correlated_pair(50, 0.5, 19);
  KdeOptions bad;
  bad.bandwidth_scale = 0.0;
  EXPECT_THROW((void)multi_information_kde(ok, blocks, bad),
               sops::PreconditionError);
}

TEST(KdeMultiInformation, BitwiseEqualAcrossExecutorWidths) {
  // KdeOptions::executor mirrors KsgOptions::executor: a lent persistent
  // pool of any width, or the `threads` transient-pool fallback, never
  // changes the estimate.
  const SampleMatrix samples = correlated_pair(400, 0.8, 21);
  const std::vector<Block> blocks{{0, 1}, {1, 1}};
  KdeOptions serial;
  serial.executor = &sops::support::serial_executor();
  const double reference = multi_information_kde(samples, blocks, serial);
  for (const std::size_t width : {2u, 3u, 5u}) {
    sops::support::TaskPool pool(width);
    KdeOptions pooled;
    pooled.executor = &pool.executor();
    EXPECT_EQ(multi_information_kde(samples, blocks, pooled), reference)
        << width;
    KdeOptions fallback;
    fallback.threads = width;
    EXPECT_EQ(multi_information_kde(samples, blocks, fallback), reference)
        << width;
  }
}

}  // namespace
