#include "genasmx/simd/batch_solver.hpp"

#include <algorithm>
#include <numeric>
#include <tuple>
#include <utility>

#include "genasmx/bitvector/bitvector.hpp"
#include "genasmx/common/sequence.hpp"

namespace gx::simd {
namespace {

/// Patterns past this length never reach the lane kernels: the widest
/// scalar solver instantiation (BitVec<8>) rejects them too, and the
/// windowed drivers cap windows at 512.
constexpr int kMaxPatternBits = bitvector::BitVec<8>::kBits;

/// Word w of BitVec::onesAbove(d): bits [0, d) cleared, rest set.
std::uint64_t onesAboveWord(int d, int w) noexcept {
  const int lo = w * 64;
  if (d <= lo) return ~0ULL;
  if (d >= lo + 64) return 0;
  return ~0ULL << (d - lo);
}

}  // namespace

SimdBatchSolver::SimdBatchSolver(IsaLevel isa)
    : isa_(clampIsa(isa)),
      lanes_(isaLanes(isa_)),
      fill_(*detail::isaInfo(isa_).fill) {
  lane_state_.resize(static_cast<std::size_t>(lanes_));
}

void SimdBatchSolver::prepareOrder(genasm::Anchor anchor,
                                   const WindowProblem* problems,
                                   std::size_t count) {
  ensureScratch(order_, count);
  order_.resize(count);
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  if (!shape_sort_ || count <= static_cast<std::size_t>(lanes_)) return;

  // Deterministic shape key: problems sharing pattern width and text
  // length pack into groups with no padding at all; the descending
  // order keeps the widest (most padding-prone) shapes together. Within
  // a shape, the predicted d_min groups lanes that converge at similar
  // levels, so fewer lanes idle while the group's slowest one finishes.
  // An in-place index sort with the input position as the final
  // tiebreak is exactly a stable sort, minus stable_sort's per-call
  // temporary buffer (which would break steady-state allocation-
  // freedom).
  using Key = std::tuple<int, int, int, int>;
  const auto key = [&](std::size_t idx) {
    const WindowProblem& p = problems[idx];
    const int m = static_cast<int>(p.pattern.size());
    const int n = static_cast<int>(p.text.size());
    if (m <= 0 || m > kMaxPatternBits) return Key{};
    const int k = p.max_edits >= 0 ? p.max_edits
                                   : genasm::autoEditCap(n, m, anchor);
    return Key{bitvector::wordsNeeded(m), n, k, p.level_hint};
  };
  std::sort(order_.begin(), order_.end(),
            [&](std::size_t a, std::size_t b) {
              const auto ka = key(a);
              const auto kb = key(b);
              if (ka != kb) return ka > kb;
              return a < b;
            });
}

int SimdBatchSolver::packGroup(genasm::Anchor anchor,
                               const WindowProblem* problems,
                               const std::size_t* order, std::size_t group,
                               int& nw, int& n_max) {
  nw = 1;
  n_max = 0;
  int valid = 0;
  std::uint64_t useful = 0;
  for (int l = 0; l < lanes_; ++l) {
    Lane& lane = lane_state_[static_cast<std::size_t>(l)];
    lane = Lane{};
    if (static_cast<std::size_t>(l) >= group) continue;
    const WindowProblem& p = problems[order[static_cast<std::size_t>(l)]];
    lane.prob = &p;
    lane.n = static_cast<int>(p.text.size());
    lane.m = static_cast<int>(p.pattern.size());
    if (lane.m <= 0 || lane.m > kMaxPatternBits) continue;  // invalid lane
    lane.k = p.max_edits >= 0 ? p.max_edits
                              : genasm::autoEditCap(lane.n, lane.m, anchor);
    lane.valid = true;
    lane.active = true;
    ++valid;
    const int lw = bitvector::wordsNeeded(lane.m);
    useful += static_cast<std::uint64_t>(lw) *
              static_cast<std::uint64_t>(lane.n);
    nw = std::max(nw, lw);
    n_max = std::max(n_max, lane.n);
  }
  ++stats_.groups;
  stats_.lane_slots += static_cast<std::uint64_t>(lanes_);
  stats_.lanes_filled += static_cast<std::uint64_t>(valid);
  stats_.packed_words += static_cast<std::uint64_t>(lanes_) *
                         static_cast<std::uint64_t>(nw) *
                         static_cast<std::uint64_t>(n_max);
  stats_.useful_words += useful;
  if (valid == 0) return 0;

  // Pack the per-column pattern-mask words, lane index innermost. Lanes
  // are padded with all-ones (active-low: "no match") past their own
  // text and in invalid slots; padded columns can never contaminate a
  // live lane's columns <= n because the recurrence only looks left.
  const std::size_t colstride =
      static_cast<std::size_t>(nw) * static_cast<std::size_t>(lanes_);
  const std::size_t pm_words = static_cast<std::size_t>(n_max) * colstride;
  ensureScratch(pm_, pm_words);
  std::fill(pm_.begin(),
            pm_.begin() + static_cast<std::ptrdiff_t>(pm_words), ~0ULL);
  for (int l = 0; l < lanes_; ++l) {
    const Lane& lane = lane_state_[static_cast<std::size_t>(l)];
    if (!lane.valid) continue;
    // mask[c] is PM[c] for the reversed pattern: bit j == 0 iff
    // pattern_rev[j] == c, i.e. pattern[m-1-j] == c.
    std::uint64_t mask[common::kAlphabetSize][8];
    for (auto& row : mask) std::fill(row, row + nw, ~0ULL);
    const std::string_view pattern = lane.prob->pattern;
    for (int j = 0; j < lane.m; ++j) {
      mask[common::baseCode(pattern[static_cast<std::size_t>(lane.m - 1 - j)])]
          [j >> 6] &= ~(1ULL << (j & 63));
    }
    const std::string_view text = lane.prob->text;
    for (int i = 1; i <= lane.n; ++i) {
      const std::uint8_t c =
          common::baseCode(text[static_cast<std::size_t>(lane.n - i)]);
      std::uint64_t* dst =
          pm_.data() + static_cast<std::size_t>(i - 1) * colstride +
          static_cast<std::size_t>(l);
      for (int w = 0; w < nw; ++w) {
        dst[static_cast<std::size_t>(w) * lanes_] = mask[c][w];
      }
    }
  }
  return valid;
}

int SimdBatchSolver::runLevel(std::uint64_t* cur, const std::uint64_t* prev,
                              int nw, int d, bool both) {
  int n_act = 0;
  int active = 0;
  for (const Lane& lane : lane_state_) {
    if (!lane.active) continue;
    n_act = std::max(n_act, lane.n);
    ++active;
  }
  stats_.levels_issued += static_cast<std::uint64_t>(lanes_);
  stats_.levels_useful += static_cast<std::uint64_t>(active);
  for (int w = 0; w < nw; ++w) {
    const std::uint64_t v = onesAboveWord(d, w);
    std::uint64_t* dst = cur + static_cast<std::size_t>(w) * lanes_;
    for (int l = 0; l < lanes_; ++l) dst[l] = v;
  }
  fill_(detail::FillArgs{cur, prev, pm_.data(), n_act, nw, d, both});
  int retired = 0;
  for (int l = 0; l < lanes_; ++l) {
    Lane& lane = lane_state_[static_cast<std::size_t>(l)];
    if (!lane.active) continue;
    const int mb = lane.m - 1;
    const std::uint64_t v =
        cur[(static_cast<std::size_t>(lane.n) * nw +
             static_cast<std::size_t>(mb >> 6)) *
                lanes_ +
            static_cast<std::size_t>(l)];
    const bool converged = ((v >> (mb & 63)) & 1) == 0;
    if (!converged && d != lane.k) continue;
    lane.dmin = converged ? d : -1;
    lane.active = false;
    ++retired;
  }
  return retired;
}

void SimdBatchSolver::runDistanceGroup(genasm::Anchor anchor, int nw,
                                       int n_max, int valid) {
  const std::size_t colstride =
      static_cast<std::size_t>(nw) * static_cast<std::size_t>(lanes_);
  const std::size_t row_words =
      static_cast<std::size_t>(n_max + 1) * colstride;
  ensureScratch(row_a_, row_words);
  ensureScratch(row_b_, row_words);
  std::uint64_t* cur = row_a_.data();
  std::uint64_t* prev = row_b_.data();
  const bool both = anchor == genasm::Anchor::BothEnds;
  for (int d = 0, remaining = valid; remaining > 0; ++d) {
    remaining -= runLevel(cur, prev, nw, d, both);
    std::swap(cur, prev);
  }
}

void SimdBatchSolver::runPersistedFill(genasm::Anchor anchor, int nw,
                                       int n_max, int valid) {
  const std::size_t colstride =
      static_cast<std::size_t>(nw) * static_cast<std::size_t>(lanes_);
  const std::size_t row_words =
      static_cast<std::size_t>(n_max + 1) * colstride;
  const bool both = anchor == genasm::Anchor::BothEnds;

  // Level-major fill with per-level row persistence: the arena grows one
  // row at a time (monotonically across groups), so lanes that converge
  // early never claim deeper levels.
  for (int d = 0, remaining = valid; remaining > 0; ++d) {
    ensureScratch(rows_, static_cast<std::size_t>(d + 1) * row_words);
    std::uint64_t* cur = rows_.data() + static_cast<std::size_t>(d) * row_words;
    const std::uint64_t* prev =
        d > 0 ? rows_.data() + static_cast<std::size_t>(d - 1) * row_words
              : nullptr;
    remaining -= runLevel(cur, prev, nw, d, both);
  }
}

/// Per-lane probe for the shared genasm::walkTraceback: the improved
/// solver's compressed-entry derivation (recompute transition bits from
/// stored R values), reading the persisted SoA rows. The walk itself —
/// priority, op budget, edge branches — is the one templated
/// implementation in genasm_common.hpp, so the lane solves cannot drift
/// from the scalar solvers' committed operation sequences.
template <class Emit>
genasm::TbStatus SimdBatchSolver::walkLane(genasm::Anchor anchor,
                                           const Lane& lane, int lane_idx,
                                           int nw, int n_max,
                                           Emit&& emit) const {
  const std::size_t colstride =
      static_cast<std::size_t>(nw) * static_cast<std::size_t>(lanes_);
  const std::size_t row_words =
      static_cast<std::size_t>(n_max + 1) * colstride;
  const std::string_view text = lane.prob->text;
  const std::string_view pattern = lane.prob->pattern;
  const int n = lane.n;
  const int m = lane.m;

  // Stored R[col][lvl] bit, active-low (see ImprovedWindowSolver::
  // rBitIsOne): bitidx -1 is the empty-prefix state, column 0 is
  // analytic (onesAbove(lvl)).
  const auto rBitIsOne = [&](int col, int lvl, int bitidx) -> bool {
    if (bitidx < 0) return genasm::shiftInOne(anchor, col, lvl);
    if (col == 0) return bitidx >= lvl;
    const std::uint64_t v =
        rows_[static_cast<std::size_t>(lvl) * row_words +
              (static_cast<std::size_t>(col) * nw +
               static_cast<std::size_t>(bitidx >> 6)) *
                  lanes_ +
              static_cast<std::size_t>(lane_idx)];
    return ((v >> (bitidx & 63)) & 1) != 0;
  };

  return genasm::walkTraceback(
      anchor, n, m, lane.dmin, genasm::tbOpBudget(lane.prob->tb_op_limit),
      [&](int i, int pl, int d) {
        // text_rev[i-1] == text[n-i]; pattern_rev[pl-1] == pattern[m-pl].
        genasm::TbFlags f;
        f.match =
            common::baseCode(pattern[static_cast<std::size_t>(m - pl)]) ==
                common::baseCode(text[static_cast<std::size_t>(n - i)]) &&
            !rBitIsOne(i - 1, d, pl - 2);
        f.del = d >= 1 && !rBitIsOne(i - 1, d - 1, pl - 1);
        f.ins = d >= 1 && !rBitIsOne(i, d - 1, pl - 2);
        f.sub = d >= 1 && !rBitIsOne(i - 1, d - 1, pl - 2);
        return f;
      },
      std::forward<Emit>(emit));
}

bool SimdBatchSolver::tracebackLane(genasm::Anchor anchor, const Lane& lane,
                                    int lane_idx, int nw, int n_max,
                                    WindowOutcome& out) const {
  const genasm::TbStatus status = walkLane(
      anchor, lane, lane_idx, nw, n_max,
      [&](common::EditOp op, std::uint32_t count) {
        switch (op) {
          case common::EditOp::Match:
            out.text_consumed += count;
            out.pattern_consumed += count;
            break;
          case common::EditOp::Mismatch:
            out.text_consumed += count;
            out.pattern_consumed += count;
            out.edits += count;
            break;
          case common::EditOp::Deletion:
            out.text_consumed += count;
            out.edits += count;
            break;
          case common::EditOp::Insertion:
            out.pattern_consumed += count;
            out.edits += count;
            break;
        }
      });
  return status != genasm::TbStatus::Bad;
}

void SimdBatchSolver::solveDistanceBatch(genasm::Anchor anchor,
                                         const WindowProblem* problems,
                                         std::size_t count, int* results) {
  prepareOrder(anchor, problems, count);
  for (std::size_t base = 0; base < count;
       base += static_cast<std::size_t>(lanes_)) {
    const std::size_t group =
        std::min<std::size_t>(static_cast<std::size_t>(lanes_), count - base);
    const std::size_t* order = order_.data() + base;
    int nw = 1;
    int n_max = 0;
    const int valid = packGroup(anchor, problems, order, group, nw, n_max);
    if (valid > 0) runDistanceGroup(anchor, nw, n_max, valid);
    for (std::size_t l = 0; l < group; ++l) {
      results[order[l]] = lane_state_[l].valid ? lane_state_[l].dmin : -1;
    }
  }
}

void SimdBatchSolver::solveWindowBatch(genasm::Anchor anchor,
                                       const WindowProblem* problems,
                                       std::size_t count, WindowOutcome* outs) {
  prepareOrder(anchor, problems, count);
  for (std::size_t base = 0; base < count;
       base += static_cast<std::size_t>(lanes_)) {
    const std::size_t group =
        std::min<std::size_t>(static_cast<std::size_t>(lanes_), count - base);
    const std::size_t* order = order_.data() + base;
    int nw = 1;
    int n_max = 0;
    const int valid = packGroup(anchor, problems, order, group, nw, n_max);
    if (valid > 0) runPersistedFill(anchor, nw, n_max, valid);
    for (std::size_t l = 0; l < group; ++l) {
      const Lane& lane = lane_state_[l];
      WindowOutcome& out = outs[order[l]];
      out = WindowOutcome{};
      if (!lane.valid || lane.dmin < 0) continue;  // ok stays false
      out.distance = lane.dmin;
      out.ok = tracebackLane(anchor, lane, static_cast<int>(l), nw, n_max, out);
    }
  }
}

void SimdBatchSolver::alignBatch(genasm::Anchor anchor,
                                 const WindowProblem* problems,
                                 std::size_t count,
                                 genasm::WindowResult* outs) {
  prepareOrder(anchor, problems, count);
  for (std::size_t base = 0; base < count;
       base += static_cast<std::size_t>(lanes_)) {
    const std::size_t group =
        std::min<std::size_t>(static_cast<std::size_t>(lanes_), count - base);
    const std::size_t* order = order_.data() + base;
    int nw = 1;
    int n_max = 0;
    const int valid = packGroup(anchor, problems, order, group, nw, n_max);
    if (valid > 0) runPersistedFill(anchor, nw, n_max, valid);
    for (std::size_t l = 0; l < group; ++l) {
      const Lane& lane = lane_state_[l];
      // In-place reset, as the scalar solvers' in-place solve() does:
      // the cigar keeps its capacity across batches.
      genasm::WindowResult& out = outs[order[l]];
      out.ok = false;
      out.distance = -1;
      out.traceback_complete = false;
      out.cigar.clear();
      if (!lane.valid || lane.dmin < 0) continue;  // ok stays false
      out.distance = lane.dmin;
      const genasm::TbStatus status = walkLane(
          anchor, lane, static_cast<int>(l), nw, n_max,
          [&](common::EditOp op, std::uint32_t cnt) {
            out.cigar.push(op, cnt);
          });
      out.ok = status != genasm::TbStatus::Bad;
      out.traceback_complete = status == genasm::TbStatus::Complete;
    }
  }
}

}  // namespace gx::simd
