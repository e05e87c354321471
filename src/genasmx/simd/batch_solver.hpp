#pragma once
// SimdBatchSolver — lane-parallel batched GenASM kernels.
//
// The paper's central observation is that windowed alignment is a pile
// of small independent bitvector DPs; per-window cost is low, so real
// throughput comes from running many windows at once. This solver packs
// L independent window problems into structure-of-arrays SIMD lanes
// (AVX-512 8x64, AVX2 4x64, SSE2 2x64, scalar 1x64 — see dispatch.hpp)
// and advances every lane through the shared level-major DP loop,
// masking lanes off as they converge or exceed their per-lane edit cap.
//
// Three entry points, all with a hard bit-identical guarantee:
//
//   * solveDistanceBatch — the two-working-row distance kernel: every
//     lane result equals BaselineWindowSolver/ImprovedWindowSolver::
//     solveDistance on the same (reversed) inputs. No row persistence.
//   * solveWindowBatch — the counting window solve the windowed
//     *distance* march consumes: lane-parallel fill with per-level row
//     persistence, then a per-lane walk of the shared traceback
//     (genasm::walkTraceback) counting committed operations — distance,
//     edit total, and text/pattern consumption match the scalar
//     WindowResult field for field.
//   * alignBatch — the full window solve: identical fill and walk, but
//     the committed operations build each problem's cigar, so outs[i]
//     mirrors the scalar solver's solve() (WindowResult) exactly. This
//     is what the batched *alignment* march and the global <=512 bp
//     alignment batches run on.
//
// Inputs are taken in ORIGINAL orientation; the solver indexes them
// reversed internally (text_rev[i-1] == text[n-i]), so callers skip the
// per-problem reversal copies the scalar path pays.
//
// Shape sorting (on by default, setShapeSort): a group's geometry pads
// every lane to the widest member's pattern words and text length, so
// ragged batches waste word-updates; and a group runs levels until its
// slowest lane converges, so lanes that converge early idle. The solver
// therefore packs lanes in shape order — a deterministic index sort by
// (pattern words, text length, edit budget, level_hint), descending,
// input position breaking ties — and scatters results back to input
// positions. level_hint is the caller's predicted d_min (the windowed
// marches pass each request's previous window distance), so windows
// that converge at similar levels share a group. Per-lane results are
// unchanged by construction: a lane's DP columns and traceback reads
// never touch another lane's words, group geometry only pads, and extra
// levels only run after the lane has retired. Word and level occupancy
// are tracked in stats() so the perf harness can report both.
//
// Instances own monotone scratch arenas and are not thread-safe: keep
// one per worker (the engine's aligners each hold one). scratchAllocs()
// counts arena growth events — steady-state batches over a stable
// geometry must not advance it (the bench asserts this).

#include <cstdint>
#include <string_view>
#include <vector>

#include "genasmx/genasm/genasm_common.hpp"
#include "genasmx/simd/dispatch.hpp"
#include "genasmx/simd/kernels.hpp"

namespace gx::simd {

/// One window problem, original orientation. max_edits is the per-lane
/// level cap (-1 = the always-solvable autoEditCap); tb_op_limit bounds
/// the traceback (ignored by solveDistanceBatch). level_hint is the
/// predicted d_min (-1 = unknown); it only steers lane packing, so any
/// value, wrong or absurd, gives the same results.
struct WindowProblem {
  std::string_view text;
  std::string_view pattern;
  int max_edits = -1;
  int tb_op_limit = -1;
  int level_hint = -1;
};

/// solveWindowBatch outcome: the WindowResult-derived values the
/// windowed distance march consumes. `edits`/`text_consumed`/
/// `pattern_consumed` are the committed cigar's editDistance(),
/// targetLength(), and queryLength() (post tb_op_limit truncation).
struct WindowOutcome {
  bool ok = false;
  int distance = -1;
  std::uint64_t edits = 0;
  std::uint64_t text_consumed = 0;
  std::uint64_t pattern_consumed = 0;
};

/// Accumulated lane-packing occupancy. Slot counts say how many lane
/// positions carried a real problem; word counts say how much of the
/// issued per-level fill work was useful (a lane's own pattern words x
/// its own text length) versus the group geometry it was padded to —
/// the figure shape sorting improves on ragged batches. Level counts say
/// how many issued lane-levels ran a lane that had not yet converged or
/// capped out (levels_useful / levels_issued is the level occupancy the
/// level_hint sort improves).
struct BatchStats {
  std::uint64_t groups = 0;
  std::uint64_t lane_slots = 0;     ///< L per group, summed
  std::uint64_t lanes_filled = 0;   ///< slots holding a valid problem
  std::uint64_t packed_words = 0;   ///< group geometry: L x nw x n_max
  std::uint64_t useful_words = 0;   ///< per valid lane: own nw x own n
  std::uint64_t levels_issued = 0;  ///< L per level run, summed
  std::uint64_t levels_useful = 0;  ///< lanes still active per level run
};

class SimdBatchSolver {
 public:
  /// Unsupported levels are clamped downward (Avx512 -> Avx2 -> Sse2 ->
  /// Scalar).
  explicit SimdBatchSolver(IsaLevel isa = activeIsa());

  [[nodiscard]] IsaLevel isa() const noexcept { return isa_; }
  [[nodiscard]] int lanes() const noexcept { return lanes_; }

  /// Shape sorting knob (default on). Results are bit-identical either
  /// way; off exists for the occupancy A/B in the perf harness.
  void setShapeSort(bool on) noexcept { shape_sort_ = on; }
  [[nodiscard]] bool shapeSort() const noexcept { return shape_sort_; }

  [[nodiscard]] const BatchStats& stats() const noexcept { return stats_; }
  void resetStats() noexcept { stats_ = BatchStats{}; }

  /// Scratch arena growth events since construction; a steady-state
  /// batch over a stable geometry must leave this unchanged.
  [[nodiscard]] std::uint64_t scratchAllocs() const noexcept {
    return scratch_grows_;
  }

  /// results[i] = d_min of problems[i], or -1 when unsolvable within the
  /// cap (or the pattern is empty / beyond 512 characters) — exactly the
  /// scalar solveDistance contract. Any count; lanes are grouped
  /// internally.
  void solveDistanceBatch(genasm::Anchor anchor, const WindowProblem* problems,
                          std::size_t count, int* results);

  /// outs[i] mirrors the scalar window solve of problems[i] (see
  /// WindowOutcome). Any count.
  void solveWindowBatch(genasm::Anchor anchor, const WindowProblem* problems,
                        std::size_t count, WindowOutcome* outs);

  /// outs[i] mirrors the scalar solver's solve() of problems[i]: ok,
  /// distance, cigar (truncated to tb_op_limit), traceback_complete.
  /// Each out is reset in place, preserving its cigar capacity, so
  /// callers reusing an outs arena across batches allocate nothing at
  /// steady state. Any count.
  void alignBatch(genasm::Anchor anchor, const WindowProblem* problems,
                  std::size_t count, genasm::WindowResult* outs);

 private:
  struct Lane {
    int n = 0;
    int m = 0;
    int k = 0;
    int dmin = -1;
    bool valid = false;
    bool active = false;
    const WindowProblem* prob = nullptr;
  };

  /// Arena growth with the instance's alloc-event accounting.
  template <class T>
  void ensureScratch(std::vector<T>& buf, std::size_t n) {
    if (buf.capacity() < n) ++scratch_grows_;
    if (buf.size() < n) buf.resize(n);
  }

  /// Fill order_[0..count): identity, or the deterministic shape sort
  /// (descending pattern words / text length / edit budget / level_hint,
  /// input order breaking ties — equivalent to a stable sort, without
  /// its per-call temporary buffer).
  void prepareOrder(genasm::Anchor anchor, const WindowProblem* problems,
                    std::size_t count);

  /// Decode a group of <= lanes_ problems (problems[order[0..group)]),
  /// pick the group geometry (nw = words covering the widest pattern,
  /// n_max), pack the per-column pattern-mask words, and record
  /// occupancy. Returns the number of valid lanes.
  int packGroup(genasm::Anchor anchor, const WindowProblem* problems,
                const std::size_t* order, std::size_t group, int& nw,
                int& n_max);

  /// Run level d for every active lane: seed cur's column 0, fill the
  /// columns the widest active lane needs, then retire the lanes that
  /// converge at d (dmin = d) or reach their cap (dmin stays -1).
  /// Counts the level in stats(); returns the number of lanes retired.
  int runLevel(std::uint64_t* cur, const std::uint64_t* prev, int nw, int d,
               bool both);

  void runDistanceGroup(genasm::Anchor anchor, int nw, int n_max, int valid);

  /// Level-major lane-parallel fill with per-level row persistence into
  /// rows_ — shared by solveWindowBatch and alignBatch (their lane
  /// tracebacks read the persisted rows).
  void runPersistedFill(genasm::Anchor anchor, int nw, int n_max, int valid);

  /// Lane probe + the shared genasm::walkTraceback; Emit receives the
  /// committed operations (cigar push or counting, caller's choice).
  template <class Emit>
  [[nodiscard]] genasm::TbStatus walkLane(genasm::Anchor anchor,
                                          const Lane& lane, int lane_idx,
                                          int nw, int n_max, Emit&& emit) const;

  [[nodiscard]] bool tracebackLane(genasm::Anchor anchor, const Lane& lane,
                                   int lane_idx, int nw, int n_max,
                                   WindowOutcome& out) const;

  IsaLevel isa_;
  int lanes_;
  detail::FillFn fill_;
  bool shape_sort_ = true;
  BatchStats stats_;
  std::uint64_t scratch_grows_ = 0;
  std::vector<Lane> lane_state_;
  std::vector<std::size_t> order_;    ///< packing order (see prepareOrder)
  std::vector<std::uint64_t> pm_;     ///< n_max x nw x L mask words
  std::vector<std::uint64_t> row_a_;  ///< two-row distance mode
  std::vector<std::uint64_t> row_b_;
  std::vector<std::uint64_t> rows_;   ///< per-level persisted rows
};

}  // namespace gx::simd
