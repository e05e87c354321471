#pragma once
// Runtime ISA dispatch for the lane-parallel GenASM kernels.
//
// The batched solvers pack independent windows into structure-of-arrays
// lanes and advance them with one vector op per bitvector word: 8 lanes
// on AVX-512, 4 on AVX2, 2 on SSE2, and a portable scalar single-lane
// fallback that is the bit-identical reference everywhere else.
// Selection happens once at
// runtime (CPUID-class detection); every level produces identical
// results, so dispatch is a pure throughput decision.
//
// Overrides on the *default* dispatch (what activeIsa() hands to every
// solver constructed without an explicit level):
//   * CMake -DGENASMX_FORCE_SCALAR=ON makes detection return Scalar.
//   * GENASMX_FORCE_SCALAR=1 in the environment does the same at
//     startup — the CI fallback legs run the production flows this way.
//   * forceIsa() re-pins the cached level programmatically.
// Explicitly constructing a SimdBatchSolver with a level (or calling
// forceIsa) still selects any isaSupported() kernel — that is how the
// equivalence tests sweep the vector kernels even on forced-scalar
// builds; the force knobs pin the default, they do not disable the
// kernels.

#include <string_view>

#include "genasmx/simd/kernels.hpp"

namespace gx::simd {

/// Ordered: each level's clamp fallback is the one below it.
enum class IsaLevel {
  Scalar = 0,  ///< one lane, plain uint64 ops — portable reference
  Sse2 = 1,    ///< 2 x 64-bit lanes (x86-64 baseline)
  Avx2 = 2,    ///< 4 x 64-bit lanes
  Avx512 = 3,  ///< 8 x 64-bit lanes (needs AVX-512 F + BW)
};

namespace detail {

/// The per-level facts, in one place.
struct IsaInfo {
  std::string_view name;
  int lanes;
  const FillFn* fill;  ///< the kernel slot; *fill is null when not built
};

/// Indexed by IsaLevel.
inline constexpr IsaInfo kIsaTable[] = {
    {"scalar", 1, &kFillScalar},
    {"sse2", 2, &kFillSse2},
    {"avx2", 4, &kFillAvx2},
    {"avx512", 8, &kFillAvx512},
};

[[nodiscard]] constexpr const IsaInfo& isaInfo(IsaLevel level) noexcept {
  return kIsaTable[static_cast<int>(level)];
}

}  // namespace detail

/// Lanes per SIMD register at this level.
[[nodiscard]] constexpr int isaLanes(IsaLevel level) noexcept {
  return detail::isaInfo(level).lanes;
}

[[nodiscard]] std::string_view isaName(IsaLevel level) noexcept;

/// True when `level`'s kernel was compiled in AND the CPU executes it.
[[nodiscard]] bool isaSupported(IsaLevel level) noexcept;

/// `level` clamped down the chain Avx512 -> Avx2 -> Sse2 -> Scalar to
/// the nearest supported one.
[[nodiscard]] IsaLevel clampIsa(IsaLevel level) noexcept;

/// The best supported level after applying the force-scalar overrides.
/// Detected once and cached; forceIsa() replaces the cached value.
[[nodiscard]] IsaLevel activeIsa() noexcept;

/// Pin the active level (clamped to a supported one). Test hook; returns
/// the level actually installed.
IsaLevel forceIsa(IsaLevel level) noexcept;

}  // namespace gx::simd
