#include "support/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace sops::support {
namespace {

SimdPolicy initial_policy() noexcept {
  const char* env = std::getenv("SOPS_SIMD");
  if (env != nullptr && std::strcmp(env, "scalar") == 0) {
    return SimdPolicy::kScalar;
  }
  return SimdPolicy::kAuto;
}

std::atomic<SimdPolicy>& policy_slot() noexcept {
  static std::atomic<SimdPolicy> policy{initial_policy()};
  return policy;
}

}  // namespace

SimdPolicy simd_policy() noexcept {
  return policy_slot().load(std::memory_order_relaxed);
}

void set_simd_policy(SimdPolicy policy) noexcept {
  policy_slot().store(policy, std::memory_order_relaxed);
}

bool simd_enabled() noexcept {
  return simd_policy() != SimdPolicy::kScalar;
}

bool cpu_dispatch_avx2() noexcept {
#if defined(SOPS_SIMD_DISPATCH_AVX2) && \
    (defined(__x86_64__) || defined(__i386__))
  static const bool has_avx2 = __builtin_cpu_supports("avx2") != 0;
  return has_avx2;
#else
  return false;
#endif
}

const char* simd_isa() noexcept {
  return cpu_dispatch_avx2() ? "avx2" : "generic";
}

}  // namespace sops::support
