#pragma once
// The one GenASM-DC level recurrence (see FillArgs in kernels.hpp),
// written once over a GCC/Clang vector of L x uint64 lanes. Each kernel
// TU instantiates fillLevel<L> under its own ISA flags, so the compiler
// lowers the same source to scalar, SSE2 (xmm), AVX2 (ymm) or AVX-512
// (zmm) operations.
//
// Everything here sits in an anonymous namespace on purpose: every
// kernel TU keeps its own copy, so the linker can never fold an
// -mavx512f instantiation into code that runs on a CPU without it.

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "genasmx/simd/kernels.hpp"

namespace gx::simd::detail {
namespace {

// A member typedef, not an alias template: GCC 12 silently drops a
// dependent vector_size attribute on an alias template, leaving a plain
// uint64 that computes lane 0 only.
template <int L>
struct LaneVec {
  typedef std::uint64_t type __attribute__((vector_size(8 * L)));
  static_assert(sizeof(type) == 8 * L, "vector_size was dropped");
};

template <int L>
using Lanes = typename LaneVec<L>::type;

// always_inline: unoptimized (Debug, sanitizer) builds would otherwise
// pay a call and an intercepted memcpy for every word.
template <int L>
[[gnu::always_inline]] inline Lanes<L> loadLanes(
    const std::uint64_t* p) noexcept {
  Lanes<L> v{};
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <int L>
[[gnu::always_inline]] inline void storeLanes(std::uint64_t* p,
                                              Lanes<L> v) noexcept {
  std::memcpy(p, &v, sizeof v);
}

/// One DP level over columns 1..n_max for all L lanes. Word w of a
/// column is one vector; the shift-left-by-one carries from word w-1
/// ride in registers (carry_*), seeded with the lane-uniform s() bit.
template <int L>
void fillLevel(const FillArgs& a) {
  using V = Lanes<L>;
  // Locals, so stores through cur cannot force reloads of the args.
  const int nw = a.nw;
  const int d = a.d;
  const bool both = a.both_ends;
  const bool has_prev = d > 0;
  const std::size_t colstride = static_cast<std::size_t>(nw) * L;
  for (int i = 1; i <= a.n_max; ++i) {
    std::uint64_t* cur_i = a.cur + static_cast<std::size_t>(i) * colstride;
    const std::uint64_t* cur_im1 = cur_i - colstride;
    const std::uint64_t* pm_i =
        a.pm + static_cast<std::size_t>(i - 1) * colstride;
    // prev is unread, and may be null, at d == 0.
    const std::uint64_t* prev_i =
        has_prev ? a.prev + static_cast<std::size_t>(i) * colstride : nullptr;
    const std::uint64_t* prev_im1 = has_prev ? prev_i - colstride : nullptr;
    V carry_c = V{} | std::uint64_t{both && i - 1 > d};
    V carry_p = V{} | std::uint64_t{both && i - 1 > d - 1};
    V carry_pi = V{} | std::uint64_t{both && i > d - 1};
    for (int w = 0; w < nw; ++w) {
      const std::size_t off = static_cast<std::size_t>(w) * L;
      const V c = loadLanes<L>(cur_im1 + off);
      V r = (c << 1) | carry_c | loadLanes<L>(pm_i + off);
      carry_c = c >> 63;
      if (has_prev) {
        const V p = loadLanes<L>(prev_im1 + off);
        const V pi = loadLanes<L>(prev_i + off);
        r &= ((p << 1) | carry_p) & p & ((pi << 1) | carry_pi);
        carry_p = p >> 63;
        carry_pi = pi >> 63;
      }
      storeLanes<L>(cur_i + off, r);
    }
  }
}

}  // namespace
}  // namespace gx::simd::detail
