// Lane math (support/lane_math.hpp): accuracy of each lane function against
// libm, and bitwise equality of every kernel tier the build carries (scalar
// reference, generic vector, AVX2) in one process.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <span>
#include <vector>

#include "rng/engine.hpp"
#include "rng/samplers.hpp"
#include "support/lane_math.hpp"

namespace {

using sops::rng::Xoshiro256;
using sops::support::lane_math_kernel_tiers;
using sops::support::LaneMathKernels;

// Distance in units in the last place between two finite doubles (+0 and
// −0 are the same point).
std::uint64_t ulp_distance(double a, double b) {
  const auto ordered = [](double x) {
    const auto bits = std::bit_cast<std::int64_t>(x);
    return bits < 0 ? std::numeric_limits<std::int64_t>::min() - bits : bits;
  };
  const std::int64_t d = ordered(a) - ordered(b);
  return static_cast<std::uint64_t>(d < 0 ? -d : d);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(LaneMath, TiersStartWithScalarAndIncludeGeneric) {
  const std::span<const LaneMathKernels> tiers = lane_math_kernel_tiers();
  ASSERT_GE(tiers.size(), 2u);
  EXPECT_STREQ(tiers[0].isa, "scalar");
  EXPECT_STREQ(tiers[1].isa, "generic");
}

// Runs every tier's exp on `in`, asserts the tiers agree bit for bit, and
// returns the scalar reference's output.
std::vector<double> exp_all_tiers(const std::vector<double>& in) {
  const std::span<const LaneMathKernels> tiers = lane_math_kernel_tiers();
  std::vector<double> reference(in.size());
  tiers[0].exp(in.data(), reference.data(), in.size());
  for (const LaneMathKernels& tier : tiers.subspan(1)) {
    std::vector<double> out(in.size());
    tier.exp(in.data(), out.data(), in.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
      EXPECT_TRUE(same_bits(reference[i], out[i]))
          << tier.isa << " " << std::hexfloat << in[i];
    }
  }
  return reference;
}

TEST(LaneMath, ExpWithinOneUlpOfStdExp) {
  // The double-Gaussian's arguments a·d² ≤ 0: 10⁶ uniform draws over
  // [−746, 0], an exponent sweep ±(1 + u)·2ᵉ from the smallest subnormal
  // magnitude up to the clamp, and 2·10⁵ draws over the band whose results
  // are subnormal.
  std::vector<double> in;
  Xoshiro256 engine(53);
  for (int i = 0; i < 1000000; ++i) {
    in.push_back(sops::rng::uniform(engine, -746.0, 0.0));
  }
  for (int e = -1074; e <= 9; ++e) {
    for (int i = 0; i < 64; ++i) {
      const double x = std::ldexp(1.0 + sops::rng::uniform01(engine), e);
      if (x <= 745.0) {
        in.push_back(-x);
        in.push_back(x);
      }
    }
  }
  for (int i = 0; i < 200000; ++i) {
    in.push_back(sops::rng::uniform(engine, -745.13, -708.4));
  }
  const std::vector<double> out = exp_all_tiers(in);
  for (std::size_t i = 0; i < in.size(); ++i) {
    ASSERT_LE(ulp_distance(out[i], std::exp(in[i])), 1u)
        << std::hexfloat << in[i];
  }
}

TEST(LaneMath, ExpEdgeValuesAreExact) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // The last two straddle ln 2⁻¹⁰⁷⁵: below it e^x rounds to +0, at or above
  // it up to the smallest subnormal.
  const std::vector<double> in{0.0,     -0.0,    -kInf,
                               -745.14, -745.2,  -746.0,
                               -1e300,  -0x1.74910d52d3052p+9,
                               -0x1.74910d52d3051p+9};
  const std::vector<double> out = exp_all_tiers(in);
  EXPECT_TRUE(same_bits(out[0], 1.0));
  EXPECT_TRUE(same_bits(out[1], 1.0));
  for (std::size_t i = 2; i < 8; ++i) {
    EXPECT_TRUE(same_bits(out[i], 0.0)) << std::hexfloat << in[i];
  }
  EXPECT_EQ(std::exp(in[7]), 0.0);
  EXPECT_EQ(out[8], 0x1p-1074);
  EXPECT_EQ(out[8], std::exp(in[8]));
  EXPECT_TRUE(std::isnan(exp_all_tiers({std::nan("")})[0]));
}

TEST(LaneMath, LogWithinTwoUlpOfStdLog) {
  // The step noise's u: 10⁶ draws of 1 − U ∈ (0, 1], the edges u = 1 and
  // u = 2⁻⁵³, and positive normals across the exponent range.
  std::vector<double> in{1.0,
                         0x1p-53,
                         0.5,
                         2.0,
                         std::nextafter(1.0, 0.0),
                         std::nextafter(1.0, 2.0),
                         0x1.6a09e667f3bcdp-1,
                         0x1.6a09e667f3bccp-1,
                         0x1p-1022,
                         0x1.fffffffffffffp+1023};
  Xoshiro256 engine(43);
  for (int i = 0; i < 1000000; ++i) {
    in.push_back(1.0 - sops::rng::uniform01(engine));
  }
  for (int i = 0; i < 100000; ++i) {
    const int exponent =
        static_cast<int>(sops::rng::uniform_index(engine, 2045)) - 1022;
    in.push_back(std::ldexp(1.0 + sops::rng::uniform01(engine), exponent));
  }
  const std::span<const LaneMathKernels> tiers = lane_math_kernel_tiers();
  std::vector<double> scalar_out(in.size());
  tiers[0].log(in.data(), scalar_out.data(), in.size());
  EXPECT_TRUE(same_bits(scalar_out[0], 0.0));  // ln 1 = +0 exactly
  for (std::size_t i = 0; i < in.size(); ++i) {
    ASSERT_LE(ulp_distance(scalar_out[i], std::log(in[i])), 2u)
        << std::hexfloat << in[i];
  }
  for (const LaneMathKernels& tier : tiers.subspan(1)) {
    std::vector<double> out(in.size());
    tier.log(in.data(), out.data(), in.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
      ASSERT_TRUE(same_bits(scalar_out[i], out[i]))
          << tier.isa << " " << std::hexfloat << in[i];
    }
  }
}

TEST(LaneMath, SincosWithinTwoUlpOfStdSinCos) {
  // The step noise's v: 10⁶ draws of U ∈ [0, 1), every octant boundary
  // k/8, and 1 − 2⁻⁵³. The reference evaluates std::sin/std::cos in long
  // double on the exactly reduced argument: sin 2πv = sin(2πw + qπ/2) with
  // q = rint(4v), w = v − q/4 — without the reduction, rounding 2πv itself
  // swamps the value near v = 1/2 and v = 1.
  std::vector<double> in;
  for (int k = 0; k <= 8; ++k) in.push_back(k / 8.0);
  in.push_back(1.0 - 0x1p-53);
  in.push_back(0x1p-53);
  in.push_back(0.5 - 0x1p-54);
  Xoshiro256 engine(47);
  for (int i = 0; i < 1000000; ++i) in.push_back(sops::rng::uniform01(engine));
  const std::size_t n = in.size();
  const std::span<const LaneMathKernels> tiers = lane_math_kernel_tiers();
  std::vector<double> sin_scalar(n), cos_scalar(n);
  tiers[0].sincos_2pi(in.data(), sin_scalar.data(), cos_scalar.data(), n);
  constexpr long double kTwoPi = 2.0L * std::numbers::pi_v<long double>;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = in[i];
    const double q = std::nearbyint(4.0 * v);
    const long double theta = kTwoPi * static_cast<long double>(v - q / 4.0);
    const long double s = std::sin(theta);
    const long double c = std::cos(theta);
    long double sin_ref = s;
    long double cos_ref = c;
    switch (static_cast<int>(q) % 4) {
      case 1: sin_ref = c; cos_ref = -s; break;
      case 2: sin_ref = -s; cos_ref = -c; break;
      case 3: sin_ref = -c; cos_ref = s; break;
      default: break;
    }
    ASSERT_LE(ulp_distance(sin_scalar[i], static_cast<double>(sin_ref)), 2u)
        << std::hexfloat << v;
    ASSERT_LE(ulp_distance(cos_scalar[i], static_cast<double>(cos_ref)), 2u)
        << std::hexfloat << v;
  }
  // Quadrant points are exact.
  EXPECT_EQ(sin_scalar[2], 1.0);   // v = 1/4
  EXPECT_EQ(cos_scalar[4], -1.0);  // v = 1/2
  EXPECT_EQ(sin_scalar[6], -1.0);  // v = 3/4
  EXPECT_EQ(cos_scalar[8], 1.0);   // v = 1
  for (const LaneMathKernels& tier : tiers.subspan(1)) {
    std::vector<double> sin_out(n), cos_out(n);
    tier.sincos_2pi(in.data(), sin_out.data(), cos_out.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(same_bits(sin_scalar[i], sin_out[i]))
          << tier.isa << " " << std::hexfloat << in[i];
      ASSERT_TRUE(same_bits(cos_scalar[i], cos_out[i]))
          << tier.isa << " " << std::hexfloat << in[i];
    }
  }
}

}  // namespace
