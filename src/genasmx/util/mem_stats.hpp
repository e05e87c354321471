#pragma once
// Instrumentation for the paper's two headline claims:
//   E3 — 24x reduction in DP memory *footprint*
//   E4 — 12x reduction in the *number of DP memory accesses*
//
// Aligner inner loops are templated on a counter policy so that the
// instrumented build pays the bookkeeping cost only when counting is
// requested; the default NullMemCounter compiles to nothing.

#include <cstddef>
#include <cstdint>

namespace gx::util {

/// Aggregated DP-memory statistics for one (or many) alignment problems.
struct MemStats {
  // Traffic to/from DP data structures, in individual word accesses.
  std::uint64_t dp_stores = 0;   ///< bitvector / cell words written
  std::uint64_t dp_loads = 0;    ///< bitvector / cell words read
  // Footprint accounting.
  std::uint64_t bytes_allocated = 0;  ///< total DP bytes requested
  std::uint64_t bytes_freed = 0;      ///< total DP bytes released
  std::uint64_t bytes_peak = 0;       ///< high-water mark of live DP bytes
  std::uint64_t problems = 0;         ///< number of window problems folded in
  // Scratch-arena accounting: heap growth events of the solvers' reusable
  // buffers. Steady state (warm arena, stable window geometry) must be 0
  // — the perf harness records this per window.
  std::uint64_t scratch_allocs = 0;  ///< arena grow events (heap reallocs)
  std::uint64_t scratch_bytes = 0;   ///< bytes added by arena growth
  // Work-shape accounting consumed by the GPU performance model.
  std::uint64_t dp_entries = 0;       ///< DP entries actually computed
  std::uint64_t wavefront_steps = 0;  ///< dependency chain length (columns +
                                      ///< levels per window problem)

  [[nodiscard]] std::uint64_t accesses() const noexcept {
    return dp_stores + dp_loads;
  }

  /// Alloc/free symmetry: every solve must release exactly the logical DP
  /// bytes it claimed. Tests assert this after each solver entry point.
  [[nodiscard]] bool balanced() const noexcept {
    return bytes_allocated == bytes_freed;
  }

  MemStats& operator+=(const MemStats& o) noexcept {
    dp_stores += o.dp_stores;
    dp_loads += o.dp_loads;
    bytes_allocated += o.bytes_allocated;
    bytes_freed += o.bytes_freed;
    if (o.bytes_peak > bytes_peak) bytes_peak = o.bytes_peak;
    problems += o.problems;
    scratch_allocs += o.scratch_allocs;
    scratch_bytes += o.scratch_bytes;
    dp_entries += o.dp_entries;
    wavefront_steps += o.wavefront_steps;
    return *this;
  }
};

/// No-op policy: every call folds to nothing at -O2.
struct NullMemCounter {
  static constexpr bool enabled = false;
  void store(std::uint64_t = 1) noexcept {}
  void load(std::uint64_t = 1) noexcept {}
  void alloc(std::uint64_t) noexcept {}
  void free(std::uint64_t) noexcept {}
  void problem() noexcept {}
  void entry(std::uint64_t = 1) noexcept {}
  void wavefront(std::uint64_t) noexcept {}
  void scratch(std::uint64_t) noexcept {}
};

/// Counting policy: accumulates into a MemStats plus tracks live bytes for
/// the peak-footprint measurement.
class CountingMemCounter {
 public:
  static constexpr bool enabled = true;
  explicit CountingMemCounter(MemStats& sink) noexcept : sink_(&sink) {}

  void store(std::uint64_t n = 1) noexcept { sink_->dp_stores += n; }
  void load(std::uint64_t n = 1) noexcept { sink_->dp_loads += n; }
  void alloc(std::uint64_t bytes) noexcept {
    sink_->bytes_allocated += bytes;
    live_ += bytes;
    if (live_ > sink_->bytes_peak) sink_->bytes_peak = live_;
  }
  void free(std::uint64_t bytes) noexcept {
    sink_->bytes_freed += bytes;
    live_ = (bytes > live_) ? 0 : live_ - bytes;
  }
  void problem() noexcept { ++sink_->problems; }
  void entry(std::uint64_t n = 1) noexcept { sink_->dp_entries += n; }
  void wavefront(std::uint64_t steps) noexcept {
    sink_->wavefront_steps += steps;
  }
  void scratch(std::uint64_t bytes) noexcept {
    ++sink_->scratch_allocs;
    sink_->scratch_bytes += bytes;
  }

 private:
  MemStats* sink_;
  std::uint64_t live_ = 0;
};

/// Run fn with a CountingMemCounter into *stats, or a NullMemCounter
/// when stats is null — the optional-instrumentation entry points use
/// this to pick their counter policy.
template <class Fn>
decltype(auto) withCounter(MemStats* stats, Fn&& fn) {
  if (stats) return fn(CountingMemCounter(*stats));
  return fn(NullMemCounter{});
}

}  // namespace gx::util
