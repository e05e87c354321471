// Portable scalar-lane fill kernel (L = 1): the bit-identical reference
// the vector kernels are checked against, and the dispatch target on
// non-x86 hosts or under GENASMX_FORCE_SCALAR.

#include "genasmx/simd/dispatch.hpp"
#include "genasmx/simd/fill_level.hpp"

namespace gx::simd::detail {
const FillFn kFillScalar = &fillLevel<isaLanes(IsaLevel::Scalar)>;
}  // namespace gx::simd::detail
