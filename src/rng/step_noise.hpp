// The integrator's per-step Gaussian noise as a counter-based stream.
//
// A noisy step draws exactly one word from its sample's engine: the step
// key. Particle i's noise is then a pure function of (key, i). Its two
// uniforms are SplitMix64 outputs 2i+1 and 2i+2 of the key,
//
//   u = 1 − U(splitmix64_mix(key + (2i+1)·γ)) ∈ (0, 1],
//   v =     U(splitmix64_mix(key + (2i+2)·γ)) ∈ [0, 1),
//
// with U the top-53-bit uniform of rng::uniform01_of, and one paired
// Box–Muller transform gives both components:
//
//   ξ_i = √(−2 ln u) · (cos 2πv, sin 2πv).
//
// Random access is what lets a sharded step compute each shard's noise on
// its own runner: the serial and sharded integrator steps are one function.
//
// ln and sincos(2π·) come from support/lane_math.hpp (an fdlibm-style log,
// and the fdlibm sin/cos kernels after an exact reduction in v) instead of
// from libm, for two reasons. They evaluate on support::v4d lanes, four
// particles per op. And, like the drift kernels (sim/drift_kernel.hpp),
// the scalar reference, the generic vector build and the AVX2 variant run
// one IEEE op sequence, so all three give the same bits (the build never
// contracts to FMA), and no libm version can move a trajectory.
#pragma once

#include <cstddef>
#include <cstdint>

namespace sops::rng {

/// The kernel set of the step noise. Plain function pointers: the AVX2
/// variants live behind a CPUID check, and no vector type ever crosses
/// this boundary.
struct StepNoiseKernels {
  /// ξ of particles [first, first + count) under step key `key`:
  /// (x[j], y[j]) = ξ_{first + j}.
  void (*normal_pairs)(std::uint64_t key, std::size_t first,
                       std::size_t count, double* x, double* y);
};

/// Kernels for the current support::simd_policy(): the scalar reference
/// under kScalar, otherwise the vector kernels for the best ISA this build
/// carries and the CPU supports. Cheap; call per step.
[[nodiscard]] const StepNoiseKernels& select_step_noise_kernels() noexcept;

/// The scalar reference kernels, unconditionally.
[[nodiscard]] const StepNoiseKernels& scalar_step_noise_kernels() noexcept;

}  // namespace sops::rng
