// Deterministic random-number engines for reproducible stochastic
// simulation.
//
// We ship our own engine (xoshiro256++) and samplers instead of relying on
// std::normal_distribution etc. because the standard leaves distribution
// algorithms implementation-defined: with libstdc++ vs libc++ the same seed
// would produce different trajectories. Every number a sops experiment draws
// is fully determined by (seed, stream, draw index), independent of
// platform, standard library, and thread count.
#pragma once

#include <cstdint>

namespace sops::rng {

/// SplitMix64's state increment γ (the 64-bit golden ratio).
inline constexpr std::uint64_t kSplitMixGamma = 0x9E3779B97F4A7C15ull;

/// SplitMix64's output mix of one state word. Output k (k ≥ 1) of the
/// generator seeded with s is splitmix64_mix(s + k·γ), so any output can be
/// computed without its predecessors. A template so the lane code of the
/// step noise (rng/step_noise.cpp) runs the same mix on vectors of words;
/// force-inlined so those vectors never cross a call.
template <typename Word>
[[gnu::always_inline]] constexpr Word splitmix64_mix(Word z) noexcept {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// SplitMix64 — expands a user seed into engine state, and (by random
/// access through splitmix64_mix) turns each integrator step's one engine
/// word into every particle's noise uniforms (rng/step_noise.hpp).
/// Passing the same input always yields the same output sequence.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    return splitmix64_mix(state_ += kSplitMixGamma);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256++ 1.0 (Blackman & Vigna) — the workhorse engine.
///
/// Satisfies the std uniform random bit generator concept so it can be used
/// with standard facilities where determinism does not matter.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds via SplitMix64 expansion (the reference-recommended procedure).
  explicit constexpr Xoshiro256(std::uint64_t seed = 0x5EED5EED5EED5EEDull) noexcept {
    SplitMix64 mix(seed);
    for (auto& word : state_) word = mix.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

  constexpr result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Advances the state by 2¹²⁸ draws. Calling jump() k times on engines
  /// seeded identically yields 2¹²⁸-spaced, effectively independent streams —
  /// this backs the one-stream-per-simulation-sample discipline.
  constexpr void jump() noexcept {
    constexpr std::uint64_t kJump[] = {0x180EC6D33CFD0ABAull, 0xD5A61266F0C9392Cull,
                                       0xA9582618E03FC9AAull, 0x39ABDC4529B1661Cull};
    std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    for (const std::uint64_t word : kJump) {
      for (int bit = 0; bit < 64; ++bit) {
        if (word & (std::uint64_t{1} << bit)) {
          s0 ^= state_[0];
          s1 ^= state_[1];
          s2 ^= state_[2];
          s3 ^= state_[3];
        }
        (*this)();
      }
    }
    state_[0] = s0;
    state_[1] = s1;
    state_[2] = s2;
    state_[3] = s3;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4]{};
};

/// Independent engine for stream index `stream` under a master seed.
///
/// Streams are separated both by seed derivation (SplitMix64 over the pair)
/// and by jump(), so distinct (seed, stream) pairs never share a sequence.
[[nodiscard]] inline Xoshiro256 make_stream(std::uint64_t seed,
                                            std::uint64_t stream) noexcept {
  SplitMix64 mix(seed ^ (0x6A09E667F3BCC909ull + stream * 0x9E3779B97F4A7C15ull));
  Xoshiro256 engine(mix.next());
  engine.jump();
  return engine;
}

}  // namespace sops::rng
