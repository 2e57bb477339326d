// RNG tests: determinism, stream independence, sampler statistics, and the
// integrator's counter-based step noise (definition, bitwise parity of its
// kernels and N(0, I₂) statistics). The lane log/sincos it uses are tested
// in support_lane_math_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

#include "rng/engine.hpp"
#include "rng/samplers.hpp"
#include "rng/step_noise.hpp"
#include "support/simd.hpp"

namespace {

using sops::rng::make_stream;
using sops::rng::SplitMix64;
using sops::rng::Xoshiro256;

TEST(SplitMix64, DeterministicSequence) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Xoshiro, DeterministicForSeed) {
  Xoshiro256 a(7);
  Xoshiro256 b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Xoshiro256>);
  EXPECT_EQ(Xoshiro256::min(), 0u);
  EXPECT_EQ(Xoshiro256::max(), ~std::uint64_t{0});
}

TEST(Xoshiro, JumpChangesState) {
  Xoshiro256 a(7);
  Xoshiro256 b(7);
  b.jump();
  bool any_different = false;
  for (int i = 0; i < 10; ++i) any_different |= (a() != b());
  EXPECT_TRUE(any_different);
}

TEST(Streams, SameSeedStreamReproduces) {
  Xoshiro256 a = make_stream(123, 4);
  Xoshiro256 b = make_stream(123, 4);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Streams, DistinctStreamsAreDecorrelated) {
  // Crude independence check: fraction of matching top bits ≈ 1/2.
  Xoshiro256 a = make_stream(123, 0);
  Xoshiro256 b = make_stream(123, 1);
  int matches = 0;
  const int trials = 4096;
  for (int i = 0; i < trials; ++i) matches += ((a() >> 63) == (b() >> 63));
  EXPECT_NEAR(static_cast<double>(matches) / trials, 0.5, 0.05);
}

TEST(Streams, DistinctSeedsDiffer) {
  Xoshiro256 a = make_stream(1, 0);
  Xoshiro256 b = make_stream(2, 0);
  EXPECT_NE(a(), b());
}

TEST(Uniform01, InRangeAndCoversIt) {
  Xoshiro256 engine(3);
  double lo = 1.0;
  double hi = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = sops::rng::uniform01(engine);
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    lo = std::min(lo, u);
    hi = std::max(hi, u);
  }
  EXPECT_LT(lo, 0.01);
  EXPECT_GT(hi, 0.99);
}

TEST(Uniform01, MeanAndVariance) {
  Xoshiro256 engine(5);
  const int n = 100000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double u = sops::rng::uniform01(engine);
    sum += u;
    sum_sq += u * u;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.005);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.005);
}

TEST(Uniform, RespectsBounds) {
  Xoshiro256 engine(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = sops::rng::uniform(engine, -3.0, 7.0);
    ASSERT_GE(v, -3.0);
    ASSERT_LT(v, 7.0);
  }
}

TEST(UniformIndex, CoversAllValuesUniformly) {
  Xoshiro256 engine(11);
  const std::uint64_t n = 7;
  std::vector<int> counts(n, 0);
  const int trials = 70000;
  for (int i = 0; i < trials; ++i) {
    const std::uint64_t v = sops::rng::uniform_index(engine, n);
    ASSERT_LT(v, n);
    ++counts[v];
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), trials / 7.0, 500.0);
  }
}

TEST(StandardNormal, MomentsMatch) {
  Xoshiro256 engine(13);
  const int n = 200000;
  double sum = 0.0;
  double sum_sq = 0.0;
  double sum_cube = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = sops::rng::standard_normal(engine);
    sum += x;
    sum_sq += x * x;
    sum_cube += x * x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.02);
  EXPECT_NEAR(sum_cube / n, 0.0, 0.05);  // symmetry
}

TEST(Normal, ScalesAndShifts) {
  Xoshiro256 engine(17);
  const int n = 100000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = sops::rng::normal(engine, 3.0, 2.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 3.0, 0.03);
  EXPECT_NEAR(sum_sq / n - mean * mean, 4.0, 0.1);
}

TEST(NormalVec2, ComponentsIndependent) {
  Xoshiro256 engine(19);
  const int n = 100000;
  double sum_xy = 0.0;
  for (int i = 0; i < n; ++i) {
    const auto v = sops::rng::normal_vec2(engine, 1.0);
    sum_xy += v.x * v.y;
  }
  EXPECT_NEAR(sum_xy / n, 0.0, 0.02);  // zero covariance
}

TEST(UniformDisc, WithinRadiusAndAreaUniform) {
  Xoshiro256 engine(23);
  const double radius = 4.0;
  const int n = 50000;
  int inner = 0;  // fraction within radius/√2 should be 1/2 by area
  for (int i = 0; i < n; ++i) {
    const auto p = sops::rng::uniform_disc(engine, radius);
    ASSERT_LE(norm(p), radius);
    if (norm(p) <= radius / std::sqrt(2.0)) ++inner;
  }
  EXPECT_NEAR(static_cast<double>(inner) / n, 0.5, 0.01);
}

TEST(UniformDisc, CentroidNearOrigin) {
  Xoshiro256 engine(29);
  sops::geom::Vec2 sum{};
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += sops::rng::uniform_disc(engine, 2.0);
  EXPECT_NEAR(sum.x / n, 0.0, 0.02);
  EXPECT_NEAR(sum.y / n, 0.0, 0.02);
}

// ------------------------------------------------------------ step noise

using sops::rng::scalar_step_noise_kernels;
using sops::rng::select_step_noise_kernels;
using sops::rng::StepNoiseKernels;

TEST(SplitMix64, RandomAccessMatchesSequence) {
  SplitMix64 sequence(0xC0FFEEull);
  for (std::uint64_t k = 1; k <= 100; ++k) {
    const std::uint64_t state = 0xC0FFEEull + k * sops::rng::kSplitMixGamma;
    EXPECT_EQ(sequence.next(), sops::rng::splitmix64_mix(state));
  }
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

struct Pairs {
  std::vector<double> x;
  std::vector<double> y;
};

Pairs step_noise(const StepNoiseKernels& kernels, std::uint64_t key,
                 std::size_t first, std::size_t count) {
  Pairs out{std::vector<double>(count), std::vector<double>(count)};
  kernels.normal_pairs(key, first, count, out.x.data(), out.y.data());
  return out;
}

// The kernels the SIMD policy selects: AVX2 where the build carries it and
// the CPU has it, else the generic vector build (the only vector tier of a
// -DSOPS_SIMD_DISPATCH=OFF build).
const StepNoiseKernels& simd_step_noise_kernels() {
  const sops::support::SimdPolicy previous = sops::support::simd_policy();
  sops::support::set_simd_policy(sops::support::SimdPolicy::kAuto);
  const StepNoiseKernels& kernels = select_step_noise_kernels();
  sops::support::set_simd_policy(previous);
  return kernels;
}

TEST(StepNoise, IsPairedBoxMullerOfSplitMix64Outputs) {
  // Particle i takes outputs 2i+1 (u = 1 − U) and 2i+2 (v = U) of the key's
  // SplitMix64 sequence; libm's Box–Muller of them agrees to rounding.
  const std::uint64_t key = 0x243F6A8885A308D3ull;
  const Pairs noise = step_noise(scalar_step_noise_kernels(), key, 0, 1000);
  SplitMix64 sequence(key);
  for (std::size_t i = 0; i < 1000; ++i) {
    const double u = 1.0 - sops::rng::uniform01_of(sequence.next());
    const double v = sops::rng::uniform01_of(sequence.next());
    const double r = std::sqrt(-2.0 * std::log(u));
    EXPECT_NEAR(noise.x[i], r * std::cos(2.0 * std::numbers::pi * v),
                1e-14 * std::max(1.0, r))
        << i;
    EXPECT_NEAR(noise.y[i], r * std::sin(2.0 * std::numbers::pi * v),
                1e-14 * std::max(1.0, r))
        << i;
  }
}

TEST(StepNoise, BitwiseAcrossKernelsAndPartitions) {
  const StepNoiseKernels& scalar = scalar_step_noise_kernels();
  const StepNoiseKernels& simd = simd_step_noise_kernels();
  EXPECT_NE(&simd, &scalar);
  Xoshiro256 keys(41);
  for (int trial = 0; trial < 20; ++trial) {
    const std::uint64_t key = keys();
    const std::size_t count = 1001;
    const Pairs whole = step_noise(scalar, key, 0, count);
    const Pairs vector = step_noise(simd, key, 0, count);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_TRUE(same_bits(whole.x[i], vector.x[i])) << trial << " " << i;
      ASSERT_TRUE(same_bits(whole.y[i], vector.y[i])) << trial << " " << i;
    }
    // Any cut into ranges (odd offsets, partial lane blocks) is the same
    // function of (key, i).
    for (std::size_t first = 0; first < count;) {
      const std::size_t len =
          std::min<std::size_t>(1 + sops::rng::uniform_index(keys, 37),
                                count - first);
      const StepNoiseKernels& kernels = (first % 2 == 0) ? simd : scalar;
      const Pairs part = step_noise(kernels, key, first, len);
      for (std::size_t j = 0; j < len; ++j) {
        ASSERT_TRUE(same_bits(part.x[j], whole.x[first + j])) << first + j;
        ASSERT_TRUE(same_bits(part.y[j], whole.y[first + j])) << first + j;
      }
      first += len;
    }
  }
  // Extreme keys and particle indices wrap the counter like any other.
  for (const std::uint64_t key : {std::uint64_t{0}, ~std::uint64_t{0}}) {
    const std::size_t first = std::size_t{1} << 62;
    const Pairs a = step_noise(scalar, key, first, 9);
    const Pairs b = step_noise(simd, key, first, 9);
    for (std::size_t j = 0; j < 9; ++j) {
      EXPECT_TRUE(same_bits(a.x[j], b.x[j]) && same_bits(a.y[j], b.y[j]));
      EXPECT_TRUE(std::isfinite(a.x[j]) && std::isfinite(a.y[j]));
    }
  }
}

// One step key per step from an engine, n particles per step.
std::vector<Pairs> noise_steps(std::size_t steps, std::size_t n) {
  Xoshiro256 engine = sops::rng::make_stream(2012, 6);
  std::vector<Pairs> out;
  for (std::size_t t = 0; t < steps; ++t) {
    out.push_back(step_noise(select_step_noise_kernels(), engine(), 0, n));
  }
  return out;
}

TEST(StepNoise, MomentsMatchStandardNormal) {
  const std::vector<Pairs> steps = noise_steps(20, 20000);
  double n = 0.0, m1 = 0.0, m2 = 0.0, m3 = 0.0, m4 = 0.0;
  for (const Pairs& step : steps) {
    for (const std::vector<double>* component : {&step.x, &step.y}) {
      for (const double z : *component) {
        n += 1.0;
        m1 += z;
        m2 += z * z;
        m3 += z * z * z;
        m4 += z * z * z * z;
      }
    }
  }
  // Standard errors at n = 8·10⁵: mean 1/√n, variance √(2/n), third moment
  // √(15/n), fourth √(96/n); the bounds are ≈ 5 of them.
  EXPECT_NEAR(m1 / n, 0.0, 0.006);
  EXPECT_NEAR(m2 / n, 1.0, 0.008);
  EXPECT_NEAR(m3 / n, 0.0, 0.022);
  EXPECT_NEAR(m4 / n, 3.0, 0.055);
}

TEST(StepNoise, KolmogorovSmirnovAgainstPhi) {
  const std::vector<Pairs> steps = noise_steps(2, 50000);
  for (const Pairs& step : steps) {
    for (const std::vector<double>* component : {&step.x, &step.y}) {
      std::vector<double> z = *component;
      std::sort(z.begin(), z.end());
      const double n = static_cast<double>(z.size());
      double d = 0.0;
      for (std::size_t i = 0; i < z.size(); ++i) {
        const double phi = 0.5 * std::erfc(-z[i] / std::numbers::sqrt2);
        d = std::max({d, phi - static_cast<double>(i) / n,
                      static_cast<double>(i + 1) / n - phi});
      }
      // The α = 0.001 critical value of the one-sample KS statistic.
      EXPECT_LT(d, 1.95 / std::sqrt(n));
    }
  }
}

TEST(StepNoise, ComponentsNeighboursAndStepsUncorrelated) {
  const std::size_t n = 20000;
  const std::vector<Pairs> steps = noise_steps(10, n);
  const auto correlation = [](const std::vector<double>& a,
                              const std::vector<double>& b) {
    double sab = 0.0, saa = 0.0, sbb = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      sab += a[i] * b[i];
      saa += a[i] * a[i];
      sbb += b[i] * b[i];
    }
    return sab / std::sqrt(saa * sbb);
  };
  // The standard error of a null correlation over m pairs is 1/√m.
  const double bound = 5.0 / std::sqrt(static_cast<double>(n));
  for (std::size_t t = 0; t < steps.size(); ++t) {
    const Pairs& s = steps[t];
    EXPECT_NEAR(correlation(s.x, s.y), 0.0, bound) << "x–y, step " << t;
    const std::vector<double> x_next(s.x.begin() + 1, s.x.end());
    const std::vector<double> x_prev(s.x.begin(), s.x.end() - 1);
    const std::vector<double> y_next(s.y.begin() + 1, s.y.end());
    const std::vector<double> y_prev(s.y.begin(), s.y.end() - 1);
    EXPECT_NEAR(correlation(x_prev, x_next), 0.0, bound) << "i, i+1 x " << t;
    EXPECT_NEAR(correlation(y_prev, y_next), 0.0, bound) << "i, i+1 y " << t;
    EXPECT_NEAR(correlation(x_prev, y_next), 0.0, bound) << "i, i+1 xy " << t;
    if (t > 0) {
      EXPECT_NEAR(correlation(steps[t - 1].x, s.x), 0.0, bound)
          << "steps " << t - 1 << ", " << t;
      EXPECT_NEAR(correlation(steps[t - 1].y, s.y), 0.0, bound)
          << "steps " << t - 1 << ", " << t;
    }
  }
}

}  // namespace
