#pragma once
// Internal contract between SimdBatchSolver and the per-ISA fill
// kernels. One level of the GenASM-DC recurrence is advanced for every
// lane of a group at once; everything else (pattern-mask packing, lane
// bookkeeping, convergence checks, traceback) is ISA-independent scalar
// code in batch_solver.cpp. The recurrence itself is written once, in
// fill_level.hpp; each kernels_<isa>.cpp instantiates it for its lane
// count under its own compile flags.
//
// Memory layout is structure-of-arrays with the lane index innermost:
// word w of column i of lane l lives at row[(i * nw + w) * L + l], so a
// single vector load picks up the same word of all L lanes. Carries for
// the shift-left-by-one propagate word to word in registers: the top
// bit of word w-1, extracted as it is loaded, feeds word w.

#include <cstdint>

namespace gx::simd::detail {

/// One DP level over columns 1..n_max for all L lanes of a group.
/// Computes, per lane (active-low bitvectors, see genasm_common.hpp):
///   cur[i] = shl1(cur[i-1], s(i-1, d)) | pm[i-1]            (d == 0)
///   cur[i] = (shl1(cur[i-1], s(i-1, d)) | pm[i-1])
///            & shl1(prev[i-1], s(i-1, d-1)) & prev[i-1]
///            & shl1(prev[i], s(i, d-1))                     (d > 0)
/// where s(i, d) = shiftInOne(anchor, i, d) is lane-uniform. cur[0] is
/// initialised by the caller (onesAbove(d), also lane-uniform).
struct FillArgs {
  std::uint64_t* cur;         ///< (n_max + 1) x nw x L words
  const std::uint64_t* prev;  ///< same layout; unread when d == 0
  const std::uint64_t* pm;    ///< n_max x nw x L pattern-mask words
  int n_max;                  ///< columns 1..n_max are computed
  int nw;                     ///< bitvector words per lane
  int d;                      ///< current level
  bool both_ends;             ///< Anchor::BothEnds (s() non-zero)
};

using FillFn = void (*)(const FillArgs&);

/// Scalar single-lane reference (always available, L = 1).
extern const FillFn kFillScalar;
/// Vector kernels; nullptr where the build lacks the instruction set.
extern const FillFn kFillSse2;
extern const FillFn kFillAvx2;
extern const FillFn kFillAvx512;

}  // namespace gx::simd::detail
