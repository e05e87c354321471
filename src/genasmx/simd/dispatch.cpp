#include "genasmx/simd/dispatch.hpp"

#include <atomic>
#include <cstdlib>

namespace gx::simd {
namespace {

bool cpuSupports(IsaLevel level) noexcept {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  switch (level) {
    case IsaLevel::Avx512:
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512bw") != 0;
    case IsaLevel::Avx2: return __builtin_cpu_supports("avx2") != 0;
    case IsaLevel::Sse2: return __builtin_cpu_supports("sse2") != 0;
    default: return true;
  }
#else
  return level == IsaLevel::Scalar;
#endif
}

bool envForcesScalar() noexcept {
  const char* v = std::getenv("GENASMX_FORCE_SCALAR");
  if (v == nullptr || v[0] == '\0') return false;
  return !(v[0] == '0' && v[1] == '\0');
}

IsaLevel detect() noexcept {
#if defined(GENASMX_FORCE_SCALAR)
  return IsaLevel::Scalar;
#else
  return envForcesScalar() ? IsaLevel::Scalar : clampIsa(IsaLevel::Avx512);
#endif
}

std::atomic<int>& activeSlot() noexcept {
  // -1 = not yet detected. Plain int so the atomic stays lock-free.
  static std::atomic<int> slot{-1};
  return slot;
}

}  // namespace

std::string_view isaName(IsaLevel level) noexcept {
  return detail::isaInfo(level).name;
}

bool isaSupported(IsaLevel level) noexcept {
  return *detail::isaInfo(level).fill != nullptr && cpuSupports(level);
}

IsaLevel activeIsa() noexcept {
  int v = activeSlot().load(std::memory_order_acquire);
  if (v < 0) {
    v = static_cast<int>(detect());
    activeSlot().store(v, std::memory_order_release);
  }
  return static_cast<IsaLevel>(v);
}

IsaLevel clampIsa(IsaLevel level) noexcept {
  while (level != IsaLevel::Scalar && !isaSupported(level)) {
    level = static_cast<IsaLevel>(static_cast<int>(level) - 1);
  }
  return level;
}

IsaLevel forceIsa(IsaLevel level) noexcept {
  level = clampIsa(level);
  activeSlot().store(static_cast<int>(level), std::memory_order_release);
  return level;
}

}  // namespace gx::simd
