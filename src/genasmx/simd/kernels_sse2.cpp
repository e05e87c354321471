// SSE2 fill kernel (2 lanes). SSE2 is part of the x86-64 baseline, so
// this TU needs no special flags there; elsewhere it is a null kernel
// and dispatch falls back to scalar lanes.

#include "genasmx/simd/dispatch.hpp"
#include "genasmx/simd/fill_level.hpp"

namespace gx::simd::detail {
#if defined(__SSE2__)
const FillFn kFillSse2 = &fillLevel<isaLanes(IsaLevel::Sse2)>;
#else
const FillFn kFillSse2 = nullptr;
#endif
}  // namespace gx::simd::detail
