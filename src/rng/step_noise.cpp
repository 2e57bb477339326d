#include "rng/step_noise.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "rng/engine.hpp"
#include "support/simd.hpp"

namespace sops::rng {
namespace {

// Every lane function below is one template over the lane types: D is
// double or support::v4d, W the matching 64-bit word type. The scalar
// reference instantiates them on one particle at a time, the vector kernels
// on four; each op is the same IEEE (or exact integer) operation either
// way, which is the whole bitwise contract. Force-inlined so the vector
// instantiations code-generate under the AVX2 wrappers' target ISA.

__attribute__((always_inline)) inline double lane_sqrt(double x) {
  return std::sqrt(x);
}

#if defined(SOPS_HAVE_VECTOR_EXT)
using support::kSimdWidth;
using support::v4d;
typedef std::uint64_t v4w __attribute__((vector_size(32)));

__attribute__((always_inline)) inline v4d lane_sqrt(v4d x) {
  for (std::size_t l = 0; l < kSimdWidth; ++l) x[l] = std::sqrt(x[l]);
  return x;
}
#endif

// Exact conversion of an integer below 2⁵³ to double, from bit patterns
// alone (AVX2 has no 64-bit integer → double conversion): the high and low
// 32-bit halves each become an exact double through a magic exponent, and
// their sum is exact because it is an integer below 2⁵³.
template <typename D, typename W>
__attribute__((always_inline)) inline D exact_double_below_2p53(W m) {
  const D hi = std::bit_cast<D>((m >> 32) | 0x4530000000000000ull) - 0x1p84;
  const D lo =
      std::bit_cast<D>((m & 0xFFFFFFFFull) | 0x4330000000000000ull) - 0x1p52;
  return hi + lo;
}

// uniform01_of on lanes: the top 53 bits of a word, as a multiple of 2⁻⁵³.
template <typename D, typename W>
__attribute__((always_inline)) inline D uniform53(W word) {
  return exact_double_below_2p53<D>(word >> 11) * 0x1p-53;
}

// ln x for positive, finite, normal x: the branch-free fdlibm algorithm
// (musl's log.c). x = 2^k·(1 + f) with 1 + f ∈ [√2/2, √2), s = f/(2 + f),
// and ln(1 + f) = f − hfsq + s·(hfsq + R(s²)) with a degree-14 minimax R;
// error below 1 ulp. k converts through the 1.5·2⁵² magic (exact for
// |k| < 2⁵¹), again because AVX2 lacks a 64-bit integer conversion.
template <typename D, typename W>
__attribute__((always_inline)) inline D lane_log(D x) {
  constexpr double kLn2Hi = 0x1.62e42feep-1;
  constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
  constexpr double kLg1 = 0x1.5555555555593p-1;
  constexpr double kLg2 = 0x1.999999997fa04p-2;
  constexpr double kLg3 = 0x1.2492494229359p-2;
  constexpr double kLg4 = 0x1.c71c51d8e78afp-3;
  constexpr double kLg5 = 0x1.7466496cb03dep-3;
  constexpr double kLg6 = 0x1.39a09d078c69fp-3;
  constexpr double kLg7 = 0x1.2f112df3e5244p-3;
  const W bits = std::bit_cast<W>(x);
  // Offset the high word so the exponent field steps at √2/2, not 1.
  const W high = (bits >> 32) + (0x3FF00000ull - 0x3FE6A09Eull);
  const W k = (high >> 20) - 0x3FFull;  // two's complement in the word
  const W reduced_high = (high & 0x000FFFFFull) + 0x3FE6A09Eull;
  const D f =
      std::bit_cast<D>((reduced_high << 32) | (bits & 0xFFFFFFFFull)) - 1.0;
  const D dk = std::bit_cast<D>(k + 0x4338000000000000ull) - 0x1.8p52;
  const D hfsq = 0.5 * f * f;
  const D s = f / (2.0 + f);
  const D z = s * s;
  const D w = z * z;
  const D t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const D t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  const D r = t2 + t1;
  return s * (hfsq + r) + dk * kLn2Lo - hfsq + f + dk * kLn2Hi;
}

// sin and cos of 2πv for v ∈ [0, 1]. The reduction is exact and happens in
// v: q = rint(4v) (through the 1.5·2⁵² magic, so q's low bits are the
// quadrant) and w = v − q/4 ∈ [−1/8, 1/8], exact because v is a multiple of
// 2⁻⁵³. θ = 2πw ∈ [−π/4, π/4] is then formed as a head plus a tail (Dekker's
// exact product against a split 2π, plus 2π's own rounding error), and
// fdlibm's sin/cos kernels (musl's __sin/__cos, below 1 ulp on this range)
// take both. The quadrant swaps and negates the pair by bit operations.
template <typename D, typename W>
__attribute__((always_inline)) inline void lane_sincos_2pi(D v, D& sin_out,
                                                          D& cos_out) {
  constexpr double kTwoPi = 0x1.921fb54442d18p+2;
  constexpr double kTwoPiTail = 0x1.1a62633145c07p-52;  // 2π − kTwoPi
  constexpr double kSplit = 0x1.0000002p+27;            // 2²⁷ + 1
  constexpr double kTwoPiSplit = kSplit * kTwoPi;
  constexpr double kTwoPiHi = kTwoPiSplit - (kTwoPiSplit - kTwoPi);
  constexpr double kTwoPiLo = kTwoPi - kTwoPiHi;
  constexpr double kS1 = -0x1.5555555555549p-3;
  constexpr double kS2 = 0x1.111111110f8a6p-7;
  constexpr double kS3 = -0x1.a01a019c161d5p-13;
  constexpr double kS4 = 0x1.71de357b1fe7dp-19;
  constexpr double kS5 = -0x1.ae5e68a2b9cebp-26;
  constexpr double kS6 = 0x1.5d93a5acfd57cp-33;
  constexpr double kC1 = 0x1.555555555554cp-5;
  constexpr double kC2 = -0x1.6c16c16c15177p-10;
  constexpr double kC3 = 0x1.a01a019cb159p-16;
  constexpr double kC4 = -0x1.27e4f809c52adp-22;
  constexpr double kC5 = 0x1.1ee9ebdb4b1c4p-29;
  constexpr double kC6 = -0x1.8fae9be8838d4p-37;

  const D rounded = 4.0 * v + 0x1.8p52;
  const W quadrant = std::bit_cast<W>(rounded);  // low bits: q mod 4
  const D w = v - (rounded - 0x1.8p52) * 0.25;

  const D x = w * kTwoPi;
  const D w_split = kSplit * w;
  const D w_hi = w_split - (w_split - w);
  const D w_lo = w - w_hi;
  const D y = (((w_hi * kTwoPiHi - x) + w_hi * kTwoPiLo + w_lo * kTwoPiHi) +
               w_lo * kTwoPiLo) +
              w * kTwoPiTail;

  const D z = x * x;
  const D zz = z * z;
  const D sr = kS2 + z * (kS3 + z * kS4) + z * zz * (kS5 + z * kS6);
  const D zx = z * x;
  const D s = x - ((z * (0.5 * y - zx * sr) - y) - zx * kS1);
  const D cr = z * (kC1 + z * (kC2 + z * kC3)) +
               zz * zz * (kC4 + z * (kC5 + z * kC6));
  const D hz = 0.5 * z;
  const D one_minus_hz = 1.0 - hz;
  const D c =
      one_minus_hz + (((1.0 - one_minus_hz) - hz) + (z * cr - x * y));

  // sin(θ + qπ/2), cos(θ + qπ/2): odd q swaps sin and cos; cos is negated
  // for q ≡ 1, 2 and sin for q ≡ 2, 3 (mod 4).
  const W swap = W{} - (quadrant & 1u);
  const W sb = std::bit_cast<W>(s);
  const W cb = std::bit_cast<W>(c);
  sin_out = std::bit_cast<D>(((cb & swap) | (sb & ~swap)) ^
                             ((quadrant & 2u) << 62));
  cos_out = std::bit_cast<D>(((sb & swap) | (cb & ~swap)) ^
                             (((quadrant + 1u) & 2u) << 62));
}

// ξ of one particle (one lane per particle) whose first uniform's SplitMix64
// state word is `state` (key + (2i+1)·γ; the second is one γ further).
template <typename D, typename W>
__attribute__((always_inline)) inline void lane_normal_pair(W state, D& x,
                                                           D& y) {
  const D u = 1.0 - uniform53<D>(splitmix64_mix(state));
  const D v = uniform53<D>(splitmix64_mix(state + kSplitMixGamma));
  D sin_2pi_v;
  D cos_2pi_v;
  lane_sincos_2pi<D, W>(v, sin_2pi_v, cos_2pi_v);
  const D radius = lane_sqrt(-2.0 * lane_log<D, W>(u));
  x = radius * cos_2pi_v;
  y = radius * sin_2pi_v;
}

// The first uniform's state word of particle i.
std::uint64_t first_state(std::uint64_t key, std::size_t i) noexcept {
  return key + (2 * static_cast<std::uint64_t>(i) + 1) * kSplitMixGamma;
}

// ----------------------------------------------------------------- scalar

void normal_pairs_scalar(std::uint64_t key, std::size_t first,
                         std::size_t count, double* x, double* y) {
  std::uint64_t state = first_state(key, first);
  for (std::size_t j = 0; j < count; ++j, state += 2 * kSplitMixGamma) {
    lane_normal_pair<double, std::uint64_t>(state, x[j], y[j]);
  }
}

void log_scalar(const double* in, double* out, std::size_t count) {
  for (std::size_t j = 0; j < count; ++j) {
    out[j] = lane_log<double, std::uint64_t>(in[j]);
  }
}

void sincos_2pi_scalar(const double* v, double* sin_out, double* cos_out,
                       std::size_t count) {
  for (std::size_t j = 0; j < count; ++j) {
    lane_sincos_2pi<double, std::uint64_t>(v[j], sin_out[j], cos_out[j]);
  }
}

#if defined(SOPS_HAVE_VECTOR_EXT)

// ----------------------------------------------------------------- vector
// Four particles per lane block; a partial last block computes its padding
// lanes (a lane depends on nothing but its own input) and stores only the
// live ones.

__attribute__((always_inline)) inline void store_lanes(v4d value, double* out,
                                                      std::size_t lanes) {
  std::memcpy(out, &value, lanes * sizeof(double));
}

__attribute__((always_inline)) inline void normal_pairs_vector_body(
    std::uint64_t key, std::size_t first, std::size_t count, double* x,
    double* y) {
  constexpr std::uint64_t g = kSplitMixGamma;
  v4w state = first_state(key, first) + v4w{0, 2 * g, 4 * g, 6 * g};
  for (std::size_t j = 0; j < count; j += kSimdWidth) {
    v4d xv;
    v4d yv;
    lane_normal_pair<v4d, v4w>(state, xv, yv);
    const std::size_t lanes = std::min(kSimdWidth, count - j);
    store_lanes(xv, x + j, lanes);
    store_lanes(yv, y + j, lanes);
    state += 8 * g;
  }
}

__attribute__((always_inline)) inline void log_vector_body(const double* in,
                                                          double* out,
                                                          std::size_t count) {
  for (std::size_t j = 0; j < count; j += kSimdWidth) {
    const std::size_t lanes = std::min(kSimdWidth, count - j);
    v4d xv = {1.0, 1.0, 1.0, 1.0};
    std::memcpy(&xv, in + j, lanes * sizeof(double));
    store_lanes(lane_log<v4d, v4w>(xv), out + j, lanes);
  }
}

__attribute__((always_inline)) inline void sincos_2pi_vector_body(
    const double* v, double* sin_out, double* cos_out, std::size_t count) {
  for (std::size_t j = 0; j < count; j += kSimdWidth) {
    const std::size_t lanes = std::min(kSimdWidth, count - j);
    v4d vv = {0.0, 0.0, 0.0, 0.0};
    std::memcpy(&vv, v + j, lanes * sizeof(double));
    v4d sv;
    v4d cv;
    lane_sincos_2pi<v4d, v4w>(vv, sv, cv);
    store_lanes(sv, sin_out + j, lanes);
    store_lanes(cv, cos_out + j, lanes);
  }
}

void normal_pairs_generic(std::uint64_t key, std::size_t first,
                          std::size_t count, double* x, double* y) {
  normal_pairs_vector_body(key, first, count, x, y);
}

void log_generic(const double* in, double* out, std::size_t count) {
  log_vector_body(in, out, count);
}

void sincos_2pi_generic(const double* v, double* sin_out, double* cos_out,
                        std::size_t count) {
  sincos_2pi_vector_body(v, sin_out, cos_out, count);
}

#if SOPS_KERNEL_AVX2

__attribute__((target("avx2"))) void normal_pairs_avx2(std::uint64_t key,
                                                       std::size_t first,
                                                       std::size_t count,
                                                       double* x, double* y) {
  normal_pairs_vector_body(key, first, count, x, y);
}

__attribute__((target("avx2"))) void log_avx2(const double* in, double* out,
                                              std::size_t count) {
  log_vector_body(in, out, count);
}

__attribute__((target("avx2"))) void sincos_2pi_avx2(const double* v,
                                                     double* sin_out,
                                                     double* cos_out,
                                                     std::size_t count) {
  sincos_2pi_vector_body(v, sin_out, cos_out, count);
}

#endif  // SOPS_KERNEL_AVX2

#endif  // SOPS_HAVE_VECTOR_EXT

}  // namespace

const StepNoiseKernels& scalar_step_noise_kernels() noexcept {
  static const StepNoiseKernels kScalar{normal_pairs_scalar, log_scalar,
                                        sincos_2pi_scalar};
  return kScalar;
}

const StepNoiseKernels& select_step_noise_kernels() noexcept {
#if defined(SOPS_HAVE_VECTOR_EXT)
  if (!support::simd_enabled()) return scalar_step_noise_kernels();
#if SOPS_KERNEL_AVX2
  static const StepNoiseKernels kAvx2{normal_pairs_avx2, log_avx2,
                                      sincos_2pi_avx2};
  if (support::cpu_dispatch_avx2()) return kAvx2;
#endif
  static const StepNoiseKernels kGeneric{normal_pairs_generic, log_generic,
                                         sincos_2pi_generic};
  return kGeneric;
#else
  return scalar_step_noise_kernels();
#endif
}

}  // namespace sops::rng
