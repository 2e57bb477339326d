// Platform-independent samplers over a Xoshiro256 engine.
//
// All algorithms here are fixed (not implementation-defined), so a given
// (seed, stream) reproduces bit-identical draws on any conforming compiler.
#pragma once

#include <cmath>
#include <cstdint>
#include <numbers>

#include "geom/vec2.hpp"
#include "rng/engine.hpp"

namespace sops::rng {

/// Uniform double in [0, 1) from the top 53 bits of one engine word.
[[nodiscard]] inline double uniform01_of(std::uint64_t word) noexcept {
  return static_cast<double>(word >> 11) * 0x1.0p-53;
}

/// Uniform double in [0, 1) with 53 random bits.
[[nodiscard]] inline double uniform01(Xoshiro256& engine) noexcept {
  return uniform01_of(engine());
}

/// Uniform double in [lo, hi).
[[nodiscard]] inline double uniform(Xoshiro256& engine, double lo,
                                    double hi) noexcept {
  return lo + (hi - lo) * uniform01(engine);
}

/// Uniform integer in [0, n) by rejection (unbiased). n must be positive.
[[nodiscard]] inline std::uint64_t uniform_index(Xoshiro256& engine,
                                                 std::uint64_t n) noexcept {
  // Lemire-style rejection on the top bits.
  const std::uint64_t threshold = (~n + 1) % n;  // 2^64 mod n
  for (;;) {
    const std::uint64_t r = engine();
    if (r >= threshold) return r % n;
  }
}

/// Standard normal draw via Box–Muller (both values used alternately would
/// require state; we deliberately spend two uniforms per normal to keep the
/// sampler stateless and the draw count predictable).
[[nodiscard]] inline double standard_normal(Xoshiro256& engine) noexcept {
  // u ∈ (0,1] to keep log(u) finite.
  const double u = 1.0 - uniform01(engine);
  const double v = uniform01(engine);
  return std::sqrt(-2.0 * std::log(u)) *
         std::cos(2.0 * std::numbers::pi * v);
}

/// Normal draw with the given mean and standard deviation.
[[nodiscard]] inline double normal(Xoshiro256& engine, double mean,
                                   double stddev) noexcept {
  return mean + stddev * standard_normal(engine);
}

/// 2-D vector of i.i.d. N(0, stddev²) components, x drawn first. (The
/// integrator's per-step noise is the counter-based stream of
/// rng/step_noise.hpp, not this sampler.)
[[nodiscard]] inline geom::Vec2 normal_vec2(Xoshiro256& engine,
                                            double stddev) noexcept {
  const double x = standard_normal(engine);
  const double y = standard_normal(engine);
  return {stddev * x, stddev * y};
}

/// Uniform point on the disc of given radius centered at the origin —
/// the paper's initial particle distribution (§5.1). Area-uniform via the
/// sqrt radial transform.
[[nodiscard]] inline geom::Vec2 uniform_disc(Xoshiro256& engine,
                                             double radius) noexcept {
  const double r = radius * std::sqrt(uniform01(engine));
  const double theta = 2.0 * std::numbers::pi * uniform01(engine);
  return {r * std::cos(theta), r * std::sin(theta)};
}

}  // namespace sops::rng
