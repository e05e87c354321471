#pragma once
// GenASM windowed (tiled) alignment of arbitrarily long sequences.
//
// Long reads are aligned in windows of W pattern characters against W
// text characters. Each window is solved with a free original-text end
// (lookahead); only the first W-O traceback operations are committed,
// the cursors advance by what those operations consumed, and the next
// window starts there. The final window takes all remaining pattern
// characters, and text its traceback leaves unconsumed becomes trailing
// deletions, so the overall alignment consumes both sequences exactly.
//
// There are two drivers: the scalar march (marchWindowed, generic over
// the window solver, so the unimproved baseline and the improved
// algorithm share identical windowing logic — the measured differences
// (E1-E5) come from the solvers alone) and the batched march, which runs
// the current windows of many problems in SIMD lanes. Each driver is one
// march serving both the CIGAR and the capped-distance result; the
// scalar march is the reference the batched one is tested against.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "genasmx/common/cigar.hpp"
#include "genasmx/common/sequence.hpp"
#include "genasmx/core/genasm_improved.hpp"
#include "genasmx/genasm/genasm_baseline.hpp"
#include "genasmx/simd/batch_solver.hpp"
#include "genasmx/util/mem_stats.hpp"

namespace gx::core {

struct WindowConfig {
  int window = 64;    ///< W: pattern characters per window
  int overlap = 24;   ///< O: trailing traceback ops discarded per window
  int max_edits = -1; ///< per-window level cap; -1 = always-solvable cap
  /// Extra text characters per window beyond the pattern window; -1
  /// selects window/2. The slack matters: with equal windows, an indel
  /// skew or a candidate start flank forces the true alignment to pay
  /// both the skew *and* a phantom insertion tail inside each window,
  /// at which point a random-DNA scatter path (~0.47 edits/char) can
  /// win d_min and permanently derail the stitching.
  int lookahead = -1;

  [[nodiscard]] int textWindow() const noexcept {
    return window + (lookahead >= 0 ? lookahead : window / 2);
  }

  void validate() const {
    if (window < 2 || window > 512) {
      throw std::invalid_argument("WindowConfig: window must be in [2,512]");
    }
    if (overlap < 1 || overlap >= window) {
      throw std::invalid_argument(
          "WindowConfig: overlap must be in [1, window)");
    }
    if (lookahead > 4 * window) {
      throw std::invalid_argument(
          "WindowConfig: lookahead must be <= 4*window");
    }
  }
};

/// Reusable per-worker state for the windowed drivers: the two reversal
/// buffers and the per-window result (cigar capacity included). Owned by
/// the caller (the engine's aligner instances keep one each), so a long
/// read — and every read after it — runs the window loop with zero
/// steady-state allocations.
struct WindowBuffers {
  std::string t_rev, q_rev;
  genasm::WindowResult wr;
};

/// marchWindowed() sink that builds the alignment's CIGAR.
struct CigarSink {
  common::Cigar& cigar;
  bool commit(const genasm::WindowResult& wr) {
    cigar.append(wr.cigar);
    return true;
  }
  bool gap(common::EditOp op, std::uint64_t len) {
    cigar.push(op, static_cast<std::uint32_t>(len));
    return true;
  }
};

/// marchWindowed() sink that only adds up committed edits. Edits only
/// accumulate, so it aborts the march as soon as the total provably
/// exceeds `budget`.
struct EditCountSink {
  std::uint64_t edits = 0;
  std::uint64_t budget = ~0ULL;
  bool commit(const genasm::WindowResult& wr) {
    edits += wr.cigar.editDistance();
    return edits <= budget;
  }
  bool gap(common::EditOp, std::uint64_t len) {
    edits += len;
    return edits <= budget;
  }
};

/// The scalar window march behind alignWindowed() and distanceWindowed().
/// Each window's committed traceback goes to `sink.commit`, the trailing
/// indels to `sink.gap`; either returning false aborts the march. Returns
/// true iff both sequences were consumed, false on a failed window, a
/// window that made no progress, or a sink abort.
template <class Solver, class Sink, class Counter = util::NullMemCounter>
bool marchWindowed(Solver& solver, std::string_view target,
                   std::string_view query, const WindowConfig& cfg,
                   WindowBuffers& bufs, Sink& sink,
                   Counter counter = Counter{}) {
  cfg.validate();
  const std::size_t W = static_cast<std::size_t>(cfg.window);
  const std::size_t slack =
      static_cast<std::size_t>(cfg.textWindow() - cfg.window);
  genasm::WindowSpec spec;
  spec.anchor = genasm::Anchor::StartOnly;
  spec.max_edits = cfg.max_edits;
  genasm::WindowResult& wr = bufs.wr;
  std::size_t ti = 0;
  std::size_t qi = 0;

  while (true) {
    const std::size_t rem_t = target.size() - ti;
    const std::size_t rem_q = query.size() - qi;
    if (rem_q == 0) return sink.gap(common::EditOp::Deletion, rem_t);
    if (rem_t == 0) return sink.gap(common::EditOp::Insertion, rem_q);

    // Final window: the remaining pattern against a text tail, solved in
    // the same free-text-end mode as mid-read windows so the DP working
    // set stays steady-state sized (k <= W levels; a fully global final
    // solve would need k up to n+m). The pattern is fully consumed;
    // whatever text the traceback leaves unconsumed becomes trailing
    // deletions, which is also where a global alignment would spend them
    // on well-sized candidates.
    const bool is_final = rem_q <= W;
    const std::size_t q_len = is_final ? rem_q : W;
    spec.tb_op_limit = is_final ? -1 : cfg.window - cfg.overlap;
    common::reverseInto(bufs.t_rev,
                        target.substr(ti, std::min(rem_t, q_len + slack)));
    common::reverseInto(bufs.q_rev, query.substr(qi, q_len));
    solver.solve(bufs.t_rev, bufs.q_rev, spec, wr, counter);
    if (!wr.ok) return false;
    const std::uint64_t tc = wr.cigar.targetLength();
    if (is_final) {
      return sink.commit(wr) &&
             sink.gap(common::EditOp::Deletion, rem_t - tc);
    }
    const std::uint64_t qc = wr.cigar.queryLength();
    if (tc == 0 && qc == 0) return false;  // defensive: no progress
    if (!sink.commit(wr)) return false;
    ti += tc;
    qi += qc;
  }
}

/// Align query against target using `solver` for each window.
/// Solver must provide solve(text_rev, pattern_rev, spec, out, counter)
/// handling patterns up to cfg.window characters.
template <class Solver, class Counter = util::NullMemCounter>
common::AlignmentResult alignWindowed(Solver& solver, std::string_view target,
                                      std::string_view query,
                                      const WindowConfig& cfg,
                                      WindowBuffers& bufs,
                                      Counter counter = Counter{}) {
  common::AlignmentResult out;
  CigarSink sink{out.cigar};
  // A failed march returns ok == false with the partial cigar.
  if (!marchWindowed(solver, target, query, cfg, bufs, sink, counter)) {
    return out;
  }
  out.ok = true;
  out.edit_distance = static_cast<int>(out.cigar.editDistance());
  out.score = -out.edit_distance;
  return out;
}

/// Convenience overload with driver-local buffers (tests, one-shot use).
template <class Solver, class Counter = util::NullMemCounter>
common::AlignmentResult alignWindowed(Solver& solver, std::string_view target,
                                      std::string_view query,
                                      const WindowConfig& cfg,
                                      Counter counter = Counter{}) {
  WindowBuffers bufs;
  return alignWindowed(solver, target, query, cfg, bufs, counter);
}

/// Windowed edit distance with an exact result cap: the alignWindowed()
/// march (each window's committed operations advance the cursors), with
/// edits counted instead of a cigar built. `cap` makes candidate scoring
/// cheap: the march aborts as soon as the committed total provably
/// exceeds it. Returns the distance alignWindowed()'s result would report
/// when it is <= cap (or cap < 0), else -1; also -1 whenever
/// alignWindowed() would fail (ok == false).
template <class Solver, class Counter = util::NullMemCounter>
int distanceWindowed(Solver& solver, std::string_view target,
                     std::string_view query, const WindowConfig& cfg,
                     int cap, WindowBuffers& bufs,
                     Counter counter = Counter{}) {
  EditCountSink sink;
  if (cap >= 0) sink.budget = static_cast<std::uint64_t>(cap);
  if (!marchWindowed(solver, target, query, cfg, bufs, sink, counter)) {
    return -1;
  }
  return static_cast<int>(sink.edits);
}

/// One capped windowed-distance problem for the batched march (original
/// orientation, same semantics as distanceWindowed's arguments).
struct BatchedDistanceRequest {
  std::string_view target;
  std::string_view query;
  int cap = -1;  ///< exact result cap; -1 = uncapped
};

/// One windowed-alignment problem for the batched march (original
/// orientation, same semantics as alignWindowed's arguments).
struct BatchedAlignRequest {
  std::string_view target;
  std::string_view query;
};

/// Reusable arenas for the batched window marches. Owned by the caller
/// (the engine's aligners keep one per worker); a steady-state march
/// over stable batch sizes grows nothing — allocs() counts growth
/// events, mirroring SimdBatchSolver::scratchAllocs(), and the bench
/// asserts both stay flat at steady state.
struct WindowedBatchScratch {
  /// One request's march state: cursors, committed edits (distance
  /// march) against the cap's budget, the current window's kind, and
  /// the last committed window's distance (the next window's lane
  /// packing hint, see simd::WindowProblem::level_hint).
  struct March {
    std::size_t ti = 0;
    std::size_t qi = 0;
    std::uint64_t acc = 0;
    std::uint64_t budget = ~0ULL;
    int last_distance = -1;  ///< -1 until a window commits
    bool done = false;
    bool is_final = false;  ///< current window is the final window
  };

  std::vector<March> st;
  std::vector<simd::WindowProblem> probs;
  std::vector<simd::WindowOutcome> outs;
  std::vector<genasm::WindowResult> wrs;  ///< cigar capacity persists
  std::vector<std::size_t> lane_req;

  /// Arena growth events since construction.
  [[nodiscard]] std::uint64_t allocs() const noexcept { return grow_events_; }

  /// Grow-only resize with alloc-event accounting (elements beyond a
  /// smaller later batch keep stale state; the marches reset what they
  /// index).
  template <class T>
  void ensure(std::vector<T>& buf, std::size_t n) {
    if (buf.capacity() < n) ++grow_events_;
    if (buf.size() < n) buf.resize(n);
  }

 private:
  std::uint64_t grow_events_ = 0;
};

/// Batched counterpart of distanceWindowed(): marches every request's
/// window chain concurrently, packing the current windows of all live
/// requests into SIMD lanes (the paper's inter-window parallelism —
/// windows of *different* problems run in lock-step lanes; each
/// problem's own windows stay sequential, as the stitching requires).
/// results[i] equals distanceWindowed(solver, target, query, cfg, cap)
/// for both GenASM window solvers: per-window solves are bit-identical
/// (see SimdBatchSolver) and the march rules are the same, so capped
/// kills and no-progress aborts fire at exactly the same windows.
void distanceWindowedBatch(simd::SimdBatchSolver& solver,
                           const WindowConfig& cfg,
                           const BatchedDistanceRequest* requests,
                           std::size_t count, int* results,
                           WindowedBatchScratch& scratch);

/// Convenience overload with march-local scratch (tests, one-shot use).
void distanceWindowedBatch(simd::SimdBatchSolver& solver,
                           const WindowConfig& cfg,
                           const BatchedDistanceRequest* requests,
                           std::size_t count, int* results);

/// Batched counterpart of alignWindowed(): the march behind
/// distanceWindowedBatch, with each lane's committed window cigars
/// accumulated instead of counted, so results[i] — ok, cigar, edit_distance, score — is
/// bit-identical to alignWindowed(solver, target, query, cfg) with the
/// matching scalar solver. Results are reset in place (cigar capacity
/// preserved), so reusing a results arena allocates nothing at steady
/// state.
void alignWindowedBatch(simd::SimdBatchSolver& solver,
                        const WindowConfig& cfg,
                        const BatchedAlignRequest* requests,
                        std::size_t count, common::AlignmentResult* results,
                        WindowedBatchScratch& scratch);

/// Convenience overload with march-local scratch (tests, one-shot use).
void alignWindowedBatch(simd::SimdBatchSolver& solver,
                        const WindowConfig& cfg,
                        const BatchedAlignRequest* requests,
                        std::size_t count, common::AlignmentResult* results);

/// Windowed alignment with the unimproved baseline solver.
[[nodiscard]] common::AlignmentResult alignWindowedBaseline(
    std::string_view target, std::string_view query,
    const WindowConfig& cfg = {}, util::MemStats* stats = nullptr);

/// Windowed alignment with the improved solver (the paper's system).
[[nodiscard]] common::AlignmentResult alignWindowedImproved(
    std::string_view target, std::string_view query,
    const WindowConfig& cfg = {}, const ImprovedOptions& opts = {},
    util::MemStats* stats = nullptr);

/// Capped windowed distance with the baseline solver.
[[nodiscard]] int distanceWindowedBaseline(std::string_view target,
                                           std::string_view query,
                                           const WindowConfig& cfg = {},
                                           int cap = -1,
                                           util::MemStats* stats = nullptr);

/// Capped windowed distance with the improved solver.
[[nodiscard]] int distanceWindowedImproved(std::string_view target,
                                           std::string_view query,
                                           const WindowConfig& cfg = {},
                                           const ImprovedOptions& opts = {},
                                           int cap = -1,
                                           util::MemStats* stats = nullptr);

}  // namespace gx::core
