// AVX2 fill kernel (4 lanes). This TU is the only one compiled with
// -mavx2 (see CMakeLists); it must contain no code that runs before
// dispatch confirms CPU support. Without the flag the kernel is null
// and dispatch settles on SSE2 or scalar.

#include "genasmx/simd/dispatch.hpp"
#include "genasmx/simd/fill_level.hpp"

namespace gx::simd::detail {
#if defined(__AVX2__)
const FillFn kFillAvx2 = &fillLevel<isaLanes(IsaLevel::Avx2)>;
#else
const FillFn kFillAvx2 = nullptr;
#endif
}  // namespace gx::simd::detail
