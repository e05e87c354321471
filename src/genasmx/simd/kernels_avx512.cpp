// AVX-512 fill kernel (8 lanes). This TU is the only one compiled with
// -mavx512f -mavx512bw (see CMakeLists); it must contain no code that
// runs before dispatch confirms CPU support. Without the flags the
// kernel is null and dispatch settles on AVX2, SSE2, or scalar.

#include "genasmx/simd/dispatch.hpp"
#include "genasmx/simd/fill_level.hpp"

namespace gx::simd::detail {
#if defined(__AVX512F__) && defined(__AVX512BW__)
const FillFn kFillAvx512 = &fillLevel<isaLanes(IsaLevel::Avx512)>;
#else
const FillFn kFillAvx512 = nullptr;
#endif
}  // namespace gx::simd::detail
