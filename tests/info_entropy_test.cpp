// Kozachenko–Leonenko entropy tests against Gaussian and uniform oracles.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "info/entropy.hpp"
#include "rng/engine.hpp"
#include "rng/samplers.hpp"
#include "support/error.hpp"
#include "support/executor.hpp"

namespace {

using sops::info::Block;
using sops::info::entropy_kl;
using sops::info::entropy_kl_block;
using sops::info::gaussian_entropy_bits;
using sops::info::gaussian_mi_bits;
using sops::info::log2_unit_ball_volume;
using sops::info::multi_information_kl;
using sops::info::SampleMatrix;
using sops::rng::Xoshiro256;
using sops::support::serial_executor;

SampleMatrix gaussian_samples(std::size_t m, std::size_t dim, double sigma,
                              std::uint64_t seed) {
  Xoshiro256 engine(seed);
  SampleMatrix samples(m, dim);
  for (std::size_t s = 0; s < m; ++s) {
    for (std::size_t d = 0; d < dim; ++d) {
      samples(s, d) = sigma * sops::rng::standard_normal(engine);
    }
  }
  return samples;
}

TEST(UnitBallVolume, KnownDimensions) {
  EXPECT_NEAR(std::exp2(log2_unit_ball_volume(1)), 2.0, 1e-12);
  EXPECT_NEAR(std::exp2(log2_unit_ball_volume(2)), std::numbers::pi, 1e-12);
  EXPECT_NEAR(std::exp2(log2_unit_ball_volume(3)),
              4.0 / 3.0 * std::numbers::pi, 1e-12);
}

TEST(GaussianOracles, KnownValues) {
  // 1-D standard normal: h = ½log₂(2πe) ≈ 2.047 bits.
  EXPECT_NEAR(gaussian_entropy_bits(1, 1.0),
              0.5 * std::log2(2 * std::numbers::pi * std::numbers::e), 1e-12);
  EXPECT_NEAR(gaussian_mi_bits(0.0), 0.0, 1e-15);
  EXPECT_GT(gaussian_mi_bits(0.9), gaussian_mi_bits(0.5));
}

class KlEntropyGaussian
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(KlEntropyGaussian, MatchesClosedForm) {
  const auto [dim, sigma] = GetParam();
  const SampleMatrix samples = gaussian_samples(2000, dim, sigma, dim * 7 + 1);
  const double estimated = entropy_kl(samples, 4, serial_executor());
  const double expected = gaussian_entropy_bits(dim, sigma);
  EXPECT_NEAR(estimated, expected, 0.12 * dim) << "dim=" << dim;
}

INSTANTIATE_TEST_SUITE_P(Shapes, KlEntropyGaussian,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(0.5, 1.0, 3.0)));

TEST(KlEntropy, UniformMatchesLogVolume) {
  // Uniform on [0, L): h = log₂ L bits.
  Xoshiro256 engine(5);
  const double length = 8.0;
  SampleMatrix samples(3000, 1);
  for (std::size_t s = 0; s < 3000; ++s) {
    samples(s, 0) = sops::rng::uniform(engine, 0.0, length);
  }
  EXPECT_NEAR(entropy_kl(samples, 4, serial_executor()), std::log2(length),
              0.1);
}

TEST(KlEntropy, ScalingShiftsByLogFactor) {
  // h(aX) = h(X) + log₂|a| per dimension.
  const SampleMatrix base = gaussian_samples(1500, 2, 1.0, 17);
  SampleMatrix scaled(base.count(), 2);
  for (std::size_t s = 0; s < base.count(); ++s) {
    scaled(s, 0) = 4.0 * base(s, 0);
    scaled(s, 1) = 4.0 * base(s, 1);
  }
  EXPECT_NEAR(entropy_kl(scaled, 4, serial_executor()),
              entropy_kl(base, 4, serial_executor()) + 2.0 * 2.0, 0.05);
}

TEST(KlEntropy, BlockRestriction) {
  // Entropy of a block equals entropy of those coordinates alone.
  const SampleMatrix samples = gaussian_samples(800, 3, 1.0, 23);
  const double block_h =
      entropy_kl_block(samples, Block{1, 1}, 4, serial_executor());
  EXPECT_NEAR(block_h, gaussian_entropy_bits(1, 1.0), 0.15);
}

TEST(KlEntropy, DegenerateCoincidentSamplesStayFinite) {
  SampleMatrix samples(10, 1);
  for (std::size_t s = 0; s < 10; ++s) samples(s, 0) = 1.0;
  EXPECT_TRUE(std::isfinite(entropy_kl(samples, 2, serial_executor())));
}

TEST(KlEntropy, PreconditionsEnforced) {
  const SampleMatrix samples = gaussian_samples(5, 1, 1.0, 29);
  EXPECT_THROW((void)entropy_kl(samples, 5, serial_executor()),
               sops::PreconditionError);
  EXPECT_THROW(
      (void)entropy_kl_block(samples, Block{1, 1}, 2, serial_executor()),
      sops::PreconditionError);
}

TEST(KlMultiInformation, AgreesWithGaussianOracle) {
  Xoshiro256 engine(31);
  const double rho = 0.8;
  SampleMatrix samples(2000, 2);
  for (std::size_t s = 0; s < 2000; ++s) {
    const double x = sops::rng::standard_normal(engine);
    samples(s, 0) = x;
    samples(s, 1) = rho * x + std::sqrt(1 - rho * rho) *
                                  sops::rng::standard_normal(engine);
  }
  const std::vector<Block> blocks{{0, 1}, {1, 1}};
  EXPECT_NEAR(multi_information_kl(samples, blocks, 4, serial_executor()),
              gaussian_mi_bits(rho), 0.2);
}

TEST(KlMultiInformation, IndependentNearZero) {
  const SampleMatrix samples = gaussian_samples(1500, 2, 1.0, 37);
  const std::vector<Block> blocks{{0, 1}, {1, 1}};
  EXPECT_NEAR(multi_information_kl(samples, blocks, 4, serial_executor()), 0.0,
              0.15);
}

TEST(KlEntropy, BitwiseEqualAcrossExecutorWidths) {
  // Batch analyses lend a persistent pool; per-sample terms are reduced in
  // a fixed order regardless of who computes them, so every width gives
  // the serial bits.
  const SampleMatrix samples = gaussian_samples(600, 4, 1.0, 11);
  const Block block{1, 2};
  const std::vector<Block> blocks{{0, 2}, {2, 2}};
  const double joint = entropy_kl(samples, 4, serial_executor());
  const double marginal =
      entropy_kl_block(samples, block, 4, serial_executor());
  const double mi = multi_information_kl(samples, blocks, 4, serial_executor());
  for (const std::size_t width : {2u, 3u, 5u}) {
    sops::support::TaskPool pool(width);
    EXPECT_EQ(entropy_kl(samples, 4, pool.executor()), joint) << width;
    EXPECT_EQ(entropy_kl_block(samples, block, 4, pool.executor()), marginal)
        << width;
    EXPECT_EQ(multi_information_kl(samples, blocks, 4, pool.executor()), mi)
        << width;
  }
}

}  // namespace
