#include "support/lane_math.hpp"

#include <algorithm>
#include <array>
#include <cstring>

namespace sops::support {
namespace {

void exp_scalar(const double* in, double* out, std::size_t count) {
  for (std::size_t j = 0; j < count; ++j) {
    out[j] = lane_exp<double, std::uint64_t>(in[j]);
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

// Loads up to one lane block, padding the rest with `fill`.
__attribute__((always_inline)) inline v4d load_lanes(const double* in,
                                                    std::size_t lanes,
                                                    double fill) {
  v4d value = {fill, fill, fill, fill};
  std::memcpy(&value, in, lanes * sizeof(double));
  return value;
}

__attribute__((always_inline)) inline void store_lanes(v4d value, double* out,
                                                      std::size_t lanes) {
  std::memcpy(out, &value, lanes * sizeof(double));
}

__attribute__((always_inline)) inline void exp_vector_body(const double* in,
                                                          double* out,
                                                          std::size_t count) {
  for (std::size_t j = 0; j < count; j += kSimdWidth) {
    const std::size_t lanes = std::min(kSimdWidth, count - j);
    store_lanes(lane_exp<v4d, v4w>(load_lanes(in + j, lanes, 0.0)), out + j,
                lanes);
  }
}

__attribute__((always_inline)) inline void log_vector_body(const double* in,
                                                          double* out,
                                                          std::size_t count) {
  for (std::size_t j = 0; j < count; j += kSimdWidth) {
    const std::size_t lanes = std::min(kSimdWidth, count - j);
    store_lanes(lane_log<v4d, v4w>(load_lanes(in + j, lanes, 1.0)), out + j,
                lanes);
  }
}

__attribute__((always_inline)) inline void sincos_2pi_vector_body(
    const double* v, double* sin_out, double* cos_out, std::size_t count) {
  for (std::size_t j = 0; j < count; j += kSimdWidth) {
    const std::size_t lanes = std::min(kSimdWidth, count - j);
    v4d sv;
    v4d cv;
    lane_sincos_2pi<v4d, v4w>(load_lanes(v + j, lanes, 0.0), sv, cv);
    store_lanes(sv, sin_out + j, lanes);
    store_lanes(cv, cos_out + j, lanes);
  }
}

void exp_generic(const double* in, double* out, std::size_t count) {
  exp_vector_body(in, out, count);
}

void log_generic(const double* in, double* out, std::size_t count) {
  log_vector_body(in, out, count);
}

void sincos_2pi_generic(const double* v, double* sin_out, double* cos_out,
                        std::size_t count) {
  sincos_2pi_vector_body(v, sin_out, cos_out, count);
}

#if SOPS_KERNEL_AVX2

__attribute__((target("avx2"))) void exp_avx2(const double* in, double* out,
                                              std::size_t count) {
  exp_vector_body(in, out, count);
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

struct Tiers {
  std::array<LaneMathKernels, 3> kernels;
  std::size_t count = 0;
};

Tiers available_tiers() noexcept {
  Tiers tiers;
  tiers.kernels[tiers.count++] = {"scalar", exp_scalar, log_scalar,
                                   sincos_2pi_scalar};
#if defined(SOPS_HAVE_VECTOR_EXT)
  tiers.kernels[tiers.count++] = {"generic", exp_generic, log_generic,
                                     sincos_2pi_generic};
#if SOPS_KERNEL_AVX2
  if (cpu_dispatch_avx2()) {
    tiers.kernels[tiers.count++] = {"avx2", exp_avx2, log_avx2,
                                      sincos_2pi_avx2};
  }
#endif
#endif
  return tiers;
}

}  // namespace

std::span<const LaneMathKernels> lane_math_kernel_tiers() noexcept {
  static const Tiers tiers = available_tiers();
  return {tiers.kernels.data(), tiers.count};
}

}  // namespace sops::support
