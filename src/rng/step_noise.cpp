#include "rng/step_noise.hpp"

#include <algorithm>
#include <cstring>

#include "rng/engine.hpp"
#include "support/lane_math.hpp"

namespace sops::rng {
namespace {

using support::lane_log;
using support::lane_sincos_2pi;
using support::lane_sqrt;

// uniform01_of on lanes: the top 53 bits of a word, as a multiple of 2⁻⁵³.
template <typename D, typename W>
__attribute__((always_inline)) inline D uniform53(W word) {
  return support::exact_double_below_2p53<D, W>(word >> 11) * 0x1p-53;
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

#if defined(SOPS_HAVE_VECTOR_EXT)

using support::kSimdWidth;
using support::v4d;
using support::v4w;

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

void normal_pairs_generic(std::uint64_t key, std::size_t first,
                          std::size_t count, double* x, double* y) {
  normal_pairs_vector_body(key, first, count, x, y);
}

#if SOPS_KERNEL_AVX2

__attribute__((target("avx2"))) void normal_pairs_avx2(std::uint64_t key,
                                                       std::size_t first,
                                                       std::size_t count,
                                                       double* x, double* y) {
  normal_pairs_vector_body(key, first, count, x, y);
}

#endif  // SOPS_KERNEL_AVX2

#endif  // SOPS_HAVE_VECTOR_EXT

}  // namespace

const StepNoiseKernels& scalar_step_noise_kernels() noexcept {
  static const StepNoiseKernels kScalar{normal_pairs_scalar};
  return kScalar;
}

const StepNoiseKernels& select_step_noise_kernels() noexcept {
#if defined(SOPS_HAVE_VECTOR_EXT)
  if (!support::simd_enabled()) return scalar_step_noise_kernels();
#if SOPS_KERNEL_AVX2
  static const StepNoiseKernels kAvx2{normal_pairs_avx2};
  if (support::cpu_dispatch_avx2()) return kAvx2;
#endif
  static const StepNoiseKernels kGeneric{normal_pairs_generic};
  return kGeneric;
#else
  return scalar_step_noise_kernels();
#endif
}

}  // namespace sops::rng
