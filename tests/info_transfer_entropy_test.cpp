// Transfer-entropy tests: directionality on coupled autoregressive
// processes with known coupling structure.
#include <gtest/gtest.h>

#include <cmath>

#include "info/transfer_entropy.hpp"
#include "rng/samplers.hpp"
#include "support/error.hpp"
#include "support/executor.hpp"

namespace {

using sops::info::Block;
using sops::info::conditional_mutual_information_ksg;
using sops::info::SampleMatrix;
using sops::info::transfer_entropy;
using sops::info::TransferEntropyOptions;
using sops::rng::Xoshiro256;

// X drives Y: x_{t+1} = a·x_t + ξ, y_{t+1} = b·y_t + c·x_t + η.
struct CoupledSeries {
  std::vector<double> x;
  std::vector<double> y;
};

CoupledSeries coupled_ar(std::size_t steps, double coupling,
                         std::uint64_t seed) {
  Xoshiro256 engine(seed);
  CoupledSeries series;
  double x = 0.0;
  double y = 0.0;
  for (std::size_t t = 0; t < steps; ++t) {
    series.x.push_back(x);
    series.y.push_back(y);
    const double x_next = 0.5 * x + sops::rng::standard_normal(engine);
    y = 0.4 * y + coupling * x + 0.5 * sops::rng::standard_normal(engine);
    x = x_next;
  }
  return series;
}

TEST(ConditionalMi, ZeroWhenAIndependentOfBGivenC) {
  // A ⊥ B, both independent of C: I(A;B|C) ≈ 0.
  Xoshiro256 engine(3);
  const std::size_t m = 800;
  SampleMatrix samples(m, 3);
  for (std::size_t s = 0; s < m; ++s) {
    samples(s, 0) = sops::rng::standard_normal(engine);
    samples(s, 1) = sops::rng::standard_normal(engine);
    samples(s, 2) = sops::rng::standard_normal(engine);
  }
  const double cmi = conditional_mutual_information_ksg(
      samples, Block{0, 1}, Block{1, 1}, Block{2, 1});
  EXPECT_NEAR(cmi, 0.0, 0.1);
}

TEST(ConditionalMi, RecoversDirectDependence) {
  // B = A + noise, C independent: I(A;B|C) = I(A;B) > 0.
  Xoshiro256 engine(5);
  const std::size_t m = 800;
  SampleMatrix samples(m, 3);
  for (std::size_t s = 0; s < m; ++s) {
    const double a = sops::rng::standard_normal(engine);
    samples(s, 0) = a;
    samples(s, 1) = a + 0.3 * sops::rng::standard_normal(engine);
    samples(s, 2) = sops::rng::standard_normal(engine);
  }
  EXPECT_GT(conditional_mutual_information_ksg(samples, Block{0, 1},
                                               Block{1, 1}, Block{2, 1}),
            1.0);
}

TEST(ConditionalMi, ExplainsAwayMediatedDependence) {
  // A → C → B chain: A and B are dependent, but conditionally independent
  // given the mediator C, so I(A;B|C) ≈ 0 while I(A;B) > 0.
  Xoshiro256 engine(7);
  const std::size_t m = 1000;
  SampleMatrix samples(m, 3);
  for (std::size_t s = 0; s < m; ++s) {
    const double a = sops::rng::standard_normal(engine);
    const double c = a + 0.4 * sops::rng::standard_normal(engine);
    const double b = c + 0.4 * sops::rng::standard_normal(engine);
    samples(s, 0) = a;
    samples(s, 1) = b;
    samples(s, 2) = c;
  }
  const double cmi = conditional_mutual_information_ksg(
      samples, Block{0, 1}, Block{1, 1}, Block{2, 1});
  EXPECT_NEAR(cmi, 0.0, 0.12);
}

TEST(TransferEntropy, DetectsCouplingDirection) {
  const CoupledSeries series = coupled_ar(3000, 0.8, 11);
  const double forward = transfer_entropy(series.x, series.y, 1);
  const double backward = transfer_entropy(series.y, series.x, 1);
  EXPECT_GT(forward, 0.25);
  EXPECT_LT(backward, forward * 0.4);
  EXPECT_NEAR(backward, 0.0, 0.1);
}

TEST(TransferEntropy, ZeroForUncoupledProcesses) {
  const CoupledSeries series = coupled_ar(3000, 0.0, 13);
  EXPECT_NEAR(transfer_entropy(series.x, series.y, 1), 0.0, 0.08);
  EXPECT_NEAR(transfer_entropy(series.y, series.x, 1), 0.0, 0.08);
}

TEST(TransferEntropy, GrowsWithCouplingStrength) {
  double previous = -1.0;
  for (const double coupling : {0.0, 0.4, 0.9}) {
    const CoupledSeries series = coupled_ar(2000, coupling, 17);
    const double te = transfer_entropy(series.x, series.y, 1);
    EXPECT_GT(te, previous - 0.05) << coupling;
    previous = te;
  }
}

TEST(TransferEntropy, VectorValuedSeries) {
  // 2-D processes (like particle positions): x drives y in both components.
  Xoshiro256 engine(19);
  std::vector<double> x;
  std::vector<double> y;
  double x0 = 0.0, x1 = 0.0, y0 = 0.0, y1 = 0.0;
  for (std::size_t t = 0; t < 1500; ++t) {
    x.push_back(x0);
    x.push_back(x1);
    y.push_back(y0);
    y.push_back(y1);
    const double nx0 = 0.5 * x0 + sops::rng::standard_normal(engine);
    const double nx1 = 0.5 * x1 + sops::rng::standard_normal(engine);
    y0 = 0.4 * y0 + 0.7 * x0 + 0.4 * sops::rng::standard_normal(engine);
    y1 = 0.4 * y1 + 0.7 * x1 + 0.4 * sops::rng::standard_normal(engine);
    x0 = nx0;
    x1 = nx1;
  }
  const double forward = transfer_entropy(x, y, 2);
  const double backward = transfer_entropy(y, x, 2);
  EXPECT_GT(forward, backward + 0.3);
}

TEST(TransferEntropy, ThreadCountDoesNotChangeResult) {
  const CoupledSeries series = coupled_ar(800, 0.6, 23);
  TransferEntropyOptions serial;
  serial.threads = 1;
  TransferEntropyOptions parallel;
  parallel.threads = 4;
  EXPECT_DOUBLE_EQ(transfer_entropy(series.x, series.y, 1, serial),
                   transfer_entropy(series.x, series.y, 1, parallel));
}

TEST(TransferEntropy, LagTwoCoupling) {
  // Coupling with delay 2: TE at lag 2 sees it, lag 1 sees less.
  Xoshiro256 engine(29);
  std::vector<double> x(3000);
  std::vector<double> y(3000);
  for (std::size_t t = 0; t < 3000; ++t) {
    x[t] = 0.5 * (t > 0 ? x[t - 1] : 0.0) + sops::rng::standard_normal(engine);
    y[t] = 0.3 * (t > 0 ? y[t - 1] : 0.0) +
           (t >= 2 ? 0.8 * x[t - 2] : 0.0) +
           0.5 * sops::rng::standard_normal(engine);
  }
  TransferEntropyOptions lag2;
  lag2.lag = 2;
  const double te_lag2 = transfer_entropy(x, y, 1, lag2);
  EXPECT_GT(te_lag2, 0.1);
}

TEST(TransferEntropy, ParticleHelpers) {
  // Two "particles": particle 0 random walk, particle 1 chases particle 0.
  Xoshiro256 engine(31);
  std::vector<std::vector<sops::geom::Vec2>> frames;
  sops::geom::Vec2 leader{0, 0};
  sops::geom::Vec2 follower{1, 1};
  for (std::size_t t = 0; t < 1200; ++t) {
    frames.push_back({leader, follower});
    follower += (leader - follower) * 0.3 +
                sops::rng::normal_vec2(engine, 0.05);
    leader += sops::rng::normal_vec2(engine, 0.3);
  }
  const double forward =
      sops::info::particle_transfer_entropy(frames, 0, 1);
  const double backward =
      sops::info::particle_transfer_entropy(frames, 1, 0);
  EXPECT_GT(forward, backward);

  const auto matrix = sops::info::transfer_entropy_matrix(frames);
  EXPECT_DOUBLE_EQ(matrix[0][0], 0.0);
  EXPECT_DOUBLE_EQ(matrix[0][1], forward);
  EXPECT_DOUBLE_EQ(matrix[1][0], backward);
}

TEST(TransferEntropy, PreconditionsEnforced) {
  const std::vector<double> short_series{1.0, 2.0, 3.0};
  EXPECT_THROW((void)transfer_entropy(short_series, short_series, 1),
               sops::PreconditionError);
  const std::vector<double> a(100, 0.0);
  const std::vector<double> b(99, 0.0);
  EXPECT_THROW((void)transfer_entropy(a, b, 1), sops::PreconditionError);
  EXPECT_THROW((void)transfer_entropy(a, a, 3), sops::PreconditionError);
  TransferEntropyOptions zero_lag;
  zero_lag.lag = 0;
  EXPECT_THROW((void)transfer_entropy(a, a, 1, zero_lag),
               sops::PreconditionError);
}


TEST(ActiveInformationStorage, HigherForPersistentProcess) {
  // Strongly autocorrelated AR(1) stores more information than white noise.
  Xoshiro256 engine(41);
  std::vector<double> persistent;
  std::vector<double> white;
  double x = 0.0;
  for (std::size_t t = 0; t < 2500; ++t) {
    persistent.push_back(x);
    x = 0.9 * x + sops::rng::standard_normal(engine);
    white.push_back(sops::rng::standard_normal(engine));
  }
  const double ais_persistent =
      sops::info::active_information_storage(persistent, 1);
  const double ais_white = sops::info::active_information_storage(white, 1);
  EXPECT_GT(ais_persistent, 0.5);
  EXPECT_NEAR(ais_white, 0.0, 0.08);
  EXPECT_GT(ais_persistent, ais_white + 0.4);
}

TEST(ActiveInformationStorage, MatchesGaussianClosedForm) {
  // AR(1) with coefficient a: I(X_{t+1}; X_t) = -1/2 log2(1 - a^2).
  Xoshiro256 engine(43);
  const double a = 0.7;
  std::vector<double> series;
  double x = 0.0;
  for (std::size_t t = 0; t < 4000; ++t) {
    series.push_back(x);
    x = a * x + std::sqrt(1 - a * a) * sops::rng::standard_normal(engine);
  }
  const double expected = -0.5 * std::log2(1.0 - a * a);
  EXPECT_NEAR(sops::info::active_information_storage(series, 1), expected,
              0.1);
}

TEST(ActiveInformationStorage, ParticleHelperRuns) {
  Xoshiro256 engine(47);
  std::vector<std::vector<sops::geom::Vec2>> frames;
  sops::geom::Vec2 p{0, 0};
  for (std::size_t t = 0; t < 800; ++t) {
    frames.push_back({p});
    p = p * 0.8 + sops::rng::normal_vec2(engine, 0.5);
  }
  EXPECT_GT(sops::info::particle_active_information_storage(frames, 0), 0.3);
}

TEST(TransferEntropy, BitwiseEqualAcrossExecutorWidths) {
  // TransferEntropyOptions::executor mirrors KsgOptions::executor; the
  // estimate never depends on who runs the per-sample queries: a lent pool
  // of any width, or the `threads` transient-pool fallback.
  const CoupledSeries series = coupled_ar(400, 0.8, 9);
  TransferEntropyOptions serial;
  serial.executor = &sops::support::serial_executor();
  const double te = transfer_entropy(series.x, series.y, 1, serial);
  const double ais =
      sops::info::active_information_storage(series.y, 1, serial);
  for (const std::size_t width : {2u, 3u, 5u}) {
    sops::support::TaskPool pool(width);
    TransferEntropyOptions pooled;
    pooled.executor = &pool.executor();
    TransferEntropyOptions fallback;
    fallback.threads = width;
    for (const TransferEntropyOptions& options : {pooled, fallback}) {
      EXPECT_EQ(transfer_entropy(series.x, series.y, 1, options), te) << width;
      EXPECT_EQ(sops::info::active_information_storage(series.y, 1, options),
                ais)
          << width;
    }
  }
}

}  // namespace
