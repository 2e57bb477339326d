// Fixed-width SIMD plumbing for the pair kernels: the lane-width constant,
// GNU vector types, and the runtime scalar/SIMD policy switch.
//
// The lane width is pinned at 4 doubles on every ISA — it is part of the
// bitwise-reproducibility contract (the in-row reduction order is defined
// over exactly 4 lane partials), so a wider machine never widens the math.
// What dispatch *may* vary is only which instruction encoding evaluates the
// identical 4-lane IEEE operation sequence: a generic baseline build (two
// 2-lane ops per vector op on SSE2) and, when compiled in, an AVX2
// translation unit selected by CPUID at runtime. Both produce the same bits
// as the scalar reference path, which stays available at runtime so parity
// tests can cross-check any configuration.
#pragma once

#include <cstddef>

namespace sops::support {

/// The pinned lane width of all vectorized pair kernels (doubles per lane
/// block). Never derived from the ISA.
inline constexpr std::size_t kSimdWidth = 4;

#if defined(__GNUC__) || defined(__clang__)
#define SOPS_HAVE_VECTOR_EXT 1
/// 4 × double lane block (GNU vector extension; 32 bytes).
typedef double v4d __attribute__((vector_size(32)));
/// Lane mask companion: element-wise comparisons on v4d yield all-ones /
/// all-zero 64-bit integer lanes of this type.
typedef long long v4m __attribute__((vector_size(32)));
#endif

// Whether this translation unit compiles the AVX2 kernel variants: plain
// C++ behind a per-function target attribute (no separately-flagged
// translation unit), selected at runtime by cpu_dispatch_avx2(). Only the
// library's own sources see SOPS_SIMD_DISPATCH_AVX2 (CMake option
// SOPS_SIMD_DISPATCH), so this is 0 everywhere else.
#if defined(SOPS_HAVE_VECTOR_EXT) && defined(SOPS_SIMD_DISPATCH_AVX2) && \
    (defined(__x86_64__) || defined(__i386__))
#define SOPS_KERNEL_AVX2 1
#else
#define SOPS_KERNEL_AVX2 0
#endif

/// Which pair-kernel implementation accumulate_drift selects at runtime.
enum class SimdPolicy {
  kAuto,    ///< vector kernels (best compiled ISA); the default
  kScalar,  ///< the scalar reference kernels — the parity fuzzer's anchor
};

/// Current process-wide policy. Initialized from the SOPS_SIMD environment
/// variable ("scalar"; anything else leaves kAuto).
[[nodiscard]] SimdPolicy simd_policy() noexcept;

/// Overrides the policy (tests flip this to cross-check paths).
void set_simd_policy(SimdPolicy policy) noexcept;

/// True when the current policy selects the vector kernels.
[[nodiscard]] bool simd_enabled() noexcept;

/// True when this build carries the AVX2 kernel TU *and* the CPU has AVX2.
[[nodiscard]] bool cpu_dispatch_avx2() noexcept;

/// ISA label of the vector kernels the policy would select right now:
/// "avx2" or "generic". Recorded in BENCH_engine.json so the trend gate can
/// refuse cross-ISA comparisons.
[[nodiscard]] const char* simd_isa() noexcept;

}  // namespace sops::support
