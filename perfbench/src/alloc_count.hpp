#pragma once
#include <cstdint>

namespace pb {
/// Heap allocations (every operator new variant) since process start,
/// across all threads.
[[nodiscard]] std::uint64_t allocCount() noexcept;
}  // namespace pb
