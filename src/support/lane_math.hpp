// Elementary functions on lanes: one IEEE op sequence per function, shared
// by the integrator's step noise (log, sincos 2π·; rng/step_noise.cpp) and
// the double-Gaussian force law (exp; sim/force_law.hpp).
//
// Every function is one template over the lane types: D is double or
// support::v4d, W the matching 64-bit word type (std::uint64_t or v4w). A
// scalar reference instantiates them on one value at a time, the vector
// kernels on four; each op is the same IEEE (or exact integer) operation
// either way, and the build never contracts to FMA, so the scalar, generic
// vector and AVX2 encodings give the same bits and no libm version can move
// a result. All are force-inlined so a vector instantiation code-generates
// under the target ISA of the kernel it is inlined into.
//
// Internal linkage throughout (an anonymous namespace): the kernels inline
// these into ISA-targeted functions, and a shared inline definition could
// be merged by the linker into whichever encoding it saw first.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>

#include "support/simd.hpp"

// Lane values never cross a non-inlined function boundary, so GCC's note
// that 32-byte vector returns change the ABI in baseline code is noise here
// (and would otherwise reach every file that includes the force law).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"
#endif

namespace sops::support {

#if defined(SOPS_HAVE_VECTOR_EXT)
/// 4 × 64-bit word lanes: v4d's bit-pattern companion for exponent and
/// integer manipulation.
typedef std::uint64_t v4w __attribute__((vector_size(32)));
#endif

namespace {

__attribute__((always_inline)) inline double lane_sqrt(double x) {
  return std::sqrt(x);
}

// x with the lanes below `bound` replaced by `bound` (NaN lanes kept).
__attribute__((always_inline)) inline double lane_clamp_below(double x,
                                                             double bound) {
  return x < bound ? bound : x;
}

#if defined(SOPS_HAVE_VECTOR_EXT)
__attribute__((always_inline)) inline v4d lane_sqrt(v4d x) {
  for (std::size_t l = 0; l < kSimdWidth; ++l) x[l] = std::sqrt(x[l]);
  return x;
}

__attribute__((always_inline)) inline v4d lane_clamp_below(v4d x,
                                                          double bound) {
  const v4d lo = {bound, bound, bound, bound};
  const v4w below = std::bit_cast<v4w>(x < lo);
  return std::bit_cast<v4d>((std::bit_cast<v4w>(lo) & below) |
                            (std::bit_cast<v4w>(x) & ~below));
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

// eˣ for x ≤ 709 (above, 2^k overflows its exponent field); NaN stays NaN.
// Exact reduction x = k·ln2 + r: k = rint(x/ln2) through the 1.5·2⁵² magic
// (k's bits then sit in the low word), and r = (x − k·ln2hi) − k·ln2lo with
// fdlibm's split ln2, whose head has 21 trailing zero bits so k·ln2hi is
// exact. e^r on |r| ≤ ln2/2 is 1 + (r + r²·Q(r)), Q the degree-11 Taylor
// remainder Σ rⁱ/(i+2)! in Estrin form — division-free, truncation below
// 0.02 ulp. 2^k is applied as two halves 2^⌊k/2⌋·2^(k−⌊k/2⌋) built from
// exponent bits: the first product is exact, so a subnormal result rounds
// once. x < −746 is clamped to −746 (then e^x < 2⁻¹⁰⁷⁵ rounds to +0), which
// also maps −inf to +0. Within 1 ulp of a correctly rounded exp.
template <typename D, typename W>
__attribute__((always_inline)) inline D lane_exp(D x) {
  constexpr double kInvLn2 = 0x1.71547652b82fep0;
  constexpr double kLn2Hi = 0x1.62e42feep-1;
  constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
  constexpr double kLowest = -746.0;
  constexpr double kMagic = 0x1.8p52;
  // Q's coefficients, 1/(i+2)!.
  constexpr double kQ0 = 1.0 / 2.0;
  constexpr double kQ1 = 1.0 / 6.0;
  constexpr double kQ2 = 1.0 / 24.0;
  constexpr double kQ3 = 1.0 / 120.0;
  constexpr double kQ4 = 1.0 / 720.0;
  constexpr double kQ5 = 1.0 / 5040.0;
  constexpr double kQ6 = 1.0 / 40320.0;
  constexpr double kQ7 = 1.0 / 362880.0;
  constexpr double kQ8 = 1.0 / 3628800.0;
  constexpr double kQ9 = 1.0 / 39916800.0;
  constexpr double kQ10 = 1.0 / 479001600.0;
  constexpr double kQ11 = 1.0 / 6227020800.0;
  x = lane_clamp_below(x, kLowest);
  const D shifted = x * kInvLn2 + kMagic;
  // k + 2048 as a positive word: the magic's bits are 0x4338…0 + k.
  const W k_biased =
      std::bit_cast<W>(shifted) - (0x4338000000000000ull - 2048u);
  const D k = shifted - kMagic;
  const D r = (x - k * kLn2Hi) - k * kLn2Lo;
  const D r2 = r * r;
  const D r4 = r2 * r2;
  const D r8 = r4 * r4;
  const D q01 = kQ0 + kQ1 * r;
  const D q23 = kQ2 + kQ3 * r;
  const D q45 = kQ4 + kQ5 * r;
  const D q67 = kQ6 + kQ7 * r;
  const D q89 = kQ8 + kQ9 * r;
  const D q1011 = kQ10 + kQ11 * r;
  const D q = ((q01 + r2 * q23) + r4 * (q45 + r2 * q67)) +
              r8 * (q89 + r2 * q1011);
  const D p = 1.0 + (r + r2 * q);
  // half = ⌊k/2⌋ + 1024; the halves' exponent fields are half − 1 and
  // k_biased − half − 1, both in [485, 1535] for k ∈ [−1076, 1024].
  const W half = k_biased >> 1;
  const D scale_lo = std::bit_cast<D>((half - 1u) << 52);
  const D scale_hi = std::bit_cast<D>((k_biased - half - 1u) << 52);
  return (p * scale_lo) * scale_hi;
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

}  // namespace

/// The lane functions above as array kernels, for the accuracy and parity
/// tests: out[j] = f(in[j]). A partial last lane block computes padding
/// lanes and stores only the live ones.
struct LaneMathKernels {
  const char* isa;  ///< "scalar", "generic" or "avx2"
  /// e^in[j], for in[j] ≤ 709.
  void (*exp)(const double* in, double* out, std::size_t count);
  /// ln in[j], for positive, finite, normal inputs.
  void (*log)(const double* in, double* out, std::size_t count);
  /// (sin 2πv[j], cos 2πv[j]) for v[j] ∈ [0, 1].
  void (*sincos_2pi)(const double* v, double* sin_out, double* cos_out,
                     std::size_t count);
};

/// Every tier this build carries and the CPU runs, in order: the scalar
/// reference, the generic vector build, then AVX2. Independent of the SIMD
/// policy, so one process can compare all tiers bit for bit.
[[nodiscard]] std::span<const LaneMathKernels>
lane_math_kernel_tiers() noexcept;

}  // namespace sops::support

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
