// SimdBatchSolver contract: every lane result is bit-identical to the
// scalar solver on the same problem, for every supported ISA level and
// the forced scalar-lane fallback. This is the guarantee the batched
// distance path in the engine and the two-phase mapping flow rest on,
// so it is hammered fuzz-style: window widths across the 64/128/256/512
// instantiations, ragged batch sizes around the lane count, cap
// saturation, degenerate shapes, and the full windowed-distance march.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "genasmx/bitvector/bitvector.hpp"
#include "genasmx/common/sequence.hpp"
#include "genasmx/core/genasm_improved.hpp"
#include "genasmx/core/windowed.hpp"
#include "genasmx/genasm/genasm_baseline.hpp"
#include "genasmx/simd/batch_solver.hpp"
#include "genasmx/simd/dispatch.hpp"
#include "genasmx/util/prng.hpp"

namespace gx {
namespace {

std::vector<simd::IsaLevel> supportedLevels() {
  std::vector<simd::IsaLevel> out = {simd::IsaLevel::Scalar};
  if (simd::isaSupported(simd::IsaLevel::Sse2)) {
    out.push_back(simd::IsaLevel::Sse2);
  }
  if (simd::isaSupported(simd::IsaLevel::Avx2)) {
    out.push_back(simd::IsaLevel::Avx2);
  }
  if (simd::isaSupported(simd::IsaLevel::Avx512)) {
    out.push_back(simd::IsaLevel::Avx512);
  }
  return out;
}

/// Scalar reference at the width the production aligners would pick for
/// this pattern (wordsNeeded), for both window solvers.
template <int NW>
int scalarDistanceAt(std::string_view t_rev, std::string_view q_rev,
                     const genasm::WindowSpec& spec, bool baseline) {
  if (baseline) {
    genasm::BaselineWindowSolver<NW> solver;
    return solver.solveDistance(t_rev, q_rev, spec);
  }
  core::ImprovedWindowSolver<NW> solver;
  return solver.solveDistance(t_rev, q_rev, spec);
}

int scalarDistance(const simd::WindowProblem& p, genasm::Anchor anchor,
                   bool baseline) {
  const auto t_rev = common::reversed(p.text);
  const auto q_rev = common::reversed(p.pattern);
  genasm::WindowSpec spec;
  spec.anchor = anchor;
  spec.max_edits = p.max_edits;
  const int nw =
      bitvector::wordsNeeded(static_cast<int>(p.pattern.size()));
  switch (nw) {
    case 1: return scalarDistanceAt<1>(t_rev, q_rev, spec, baseline);
    case 2: return scalarDistanceAt<2>(t_rev, q_rev, spec, baseline);
    case 3: return scalarDistanceAt<3>(t_rev, q_rev, spec, baseline);
    case 4: return scalarDistanceAt<4>(t_rev, q_rev, spec, baseline);
    case 5: return scalarDistanceAt<5>(t_rev, q_rev, spec, baseline);
    case 6: return scalarDistanceAt<6>(t_rev, q_rev, spec, baseline);
    case 7: return scalarDistanceAt<7>(t_rev, q_rev, spec, baseline);
    default: return scalarDistanceAt<8>(t_rev, q_rev, spec, baseline);
  }
}

template <int NW>
genasm::WindowResult scalarSolveAt(std::string_view t_rev,
                                   std::string_view q_rev,
                                   const genasm::WindowSpec& spec,
                                   bool baseline,
                                   const core::ImprovedOptions& opts = {}) {
  if (baseline) {
    genasm::BaselineWindowSolver<NW> solver;
    return solver.solve(t_rev, q_rev, spec);
  }
  core::ImprovedWindowSolver<NW> solver(opts);
  return solver.solve(t_rev, q_rev, spec);
}

genasm::WindowResult scalarSolve(const simd::WindowProblem& p,
                                 genasm::Anchor anchor, bool baseline,
                                 const core::ImprovedOptions& opts = {}) {
  const auto t_rev = common::reversed(p.text);
  const auto q_rev = common::reversed(p.pattern);
  genasm::WindowSpec spec;
  spec.anchor = anchor;
  spec.max_edits = p.max_edits;
  spec.tb_op_limit = p.tb_op_limit;
  const int nw =
      bitvector::wordsNeeded(static_cast<int>(p.pattern.size()));
  switch (nw) {
    case 1: return scalarSolveAt<1>(t_rev, q_rev, spec, baseline, opts);
    case 2: return scalarSolveAt<2>(t_rev, q_rev, spec, baseline, opts);
    case 4: return scalarSolveAt<4>(t_rev, q_rev, spec, baseline, opts);
    default: return scalarSolveAt<8>(t_rev, q_rev, spec, baseline, opts);
  }
}

/// Random window problems with a mix of widths (pattern length up to
/// `max_m`), error levels, caps, and traceback limits. Backing strings
/// are owned by `store` so the views stay alive.
std::vector<simd::WindowProblem> randomProblems(
    util::Xoshiro256& rng, std::size_t count, std::size_t max_m,
    std::vector<std::string>& store) {
  std::vector<simd::WindowProblem> out;
  // Short strings live in SSO storage, which vector reallocation moves;
  // reserve up front so the views handed out stay valid.
  store.reserve(store.size() + 2 * count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t m = 1 + rng.below(max_m);
    const std::size_t n = 1 + rng.below(max_m + max_m / 2);
    store.push_back(common::randomSequence(rng, n));
    const std::string& text = store.back();
    // Half the patterns derive from the text (realistic low distances,
    // exercises convergence masking); half are unrelated (cap blowups).
    if (rng.below(2) == 0) {
      store.push_back(common::mutateSequence(
          rng, std::string_view(text).substr(0, std::min(n, m)),
          rng.below(m / 4 + 2)));
      if (store.back().empty() || store.back().size() > max_m) {
        store.back() = common::randomSequence(rng, m);
      }
    } else {
      store.push_back(common::randomSequence(rng, m));
    }
    simd::WindowProblem p;
    p.text = text;
    p.pattern = store.back();
    // Cap mix: always-solvable, saturating-small, and mid caps.
    const int mode = static_cast<int>(rng.below(4));
    p.max_edits = mode == 0 ? -1
                  : mode == 1 ? static_cast<int>(rng.below(3))
                              : static_cast<int>(rng.below(m + 4));
    p.tb_op_limit =
        rng.below(3) == 0 ? static_cast<int>(1 + rng.below(m + 8)) : -1;
    out.push_back(p);
  }
  return out;
}

TEST(SimdDispatch, ScalarAlwaysSupportedAndForceClamps) {
  EXPECT_TRUE(simd::isaSupported(simd::IsaLevel::Scalar));
  const auto active = simd::activeIsa();
  EXPECT_TRUE(simd::isaSupported(active));
  // Forcing an unsupported level clamps to a supported one.
  const auto forced = simd::forceIsa(simd::IsaLevel::Avx2);
  EXPECT_TRUE(simd::isaSupported(forced));
  EXPECT_EQ(simd::forceIsa(simd::IsaLevel::Scalar), simd::IsaLevel::Scalar);
  simd::forceIsa(active);  // restore
  EXPECT_FALSE(simd::isaName(active).empty());
  EXPECT_EQ(simd::isaLanes(simd::IsaLevel::Scalar), 1);
}

TEST(SimdBatchDistance, MatchesScalarSolveDistanceAcrossWidths) {
  // Width classes straddling every BitVec instantiation the production
  // dispatch uses: 64 / 128 / 256 / 512 plus ragged in-between sizes.
  for (const std::size_t max_m : {64UL, 128UL, 256UL, 512UL}) {
    util::Xoshiro256 rng(1000 + max_m);
    std::vector<std::string> store;
    const auto problems = randomProblems(rng, 48, max_m, store);
    for (const auto anchor :
         {genasm::Anchor::StartOnly, genasm::Anchor::BothEnds}) {
      // Scalar references, computed once for every ISA level below.
      std::vector<int> want;
      for (const auto& p : problems) {
        want.push_back(scalarDistance(p, anchor, false));
        // The baseline solver's distance kernel agrees too.
        EXPECT_EQ(scalarDistance(p, anchor, true), want.back());
      }
      for (const auto level : supportedLevels()) {
        simd::SimdBatchSolver solver(level);
        std::vector<int> got(problems.size(), -2);
        solver.solveDistanceBatch(anchor, problems.data(), problems.size(),
                                  got.data());
        for (std::size_t i = 0; i < problems.size(); ++i) {
          EXPECT_EQ(got[i], want[i])
              << simd::isaName(level) << " i=" << i << " max_m=" << max_m
              << " |t|=" << problems[i].text.size()
              << " |q|=" << problems[i].pattern.size()
              << " k=" << problems[i].max_edits;
        }
      }
    }
  }
}

TEST(SimdBatchDistance, RaggedBatchSizesAroundTheLaneCount) {
  util::Xoshiro256 rng(77);
  std::vector<std::string> store;
  const auto all = randomProblems(rng, 32, 80, store);
  std::vector<int> want;
  for (const auto& p : all) {
    want.push_back(scalarDistance(p, genasm::Anchor::BothEnds, false));
  }
  for (const auto level : supportedLevels()) {
    simd::SimdBatchSolver solver(level);
    const std::size_t lanes = static_cast<std::size_t>(solver.lanes());
    for (std::size_t batch = 1; batch <= lanes + 3; ++batch) {
      std::vector<int> got(batch, -2);
      solver.solveDistanceBatch(genasm::Anchor::BothEnds, all.data(), batch,
                                got.data());
      for (std::size_t i = 0; i < batch; ++i) {
        EXPECT_EQ(got[i], want[i])
            << simd::isaName(level) << " batch=" << batch << " i=" << i;
      }
    }
  }
}

TEST(SimdBatchDistance, DegenerateShapes) {
  util::Xoshiro256 rng(5);
  const std::string text = common::randomSequence(rng, 600);
  const std::string big(600, 'A');
  const std::vector<simd::WindowProblem> problems = {
      {text, "", -1, -1},                         // empty pattern -> -1
      {text, big, -1, -1},                        // pattern > 512 -> -1
      {"", "ACGT", -1, -1},                       // empty text
      {"", "ACGT", 2, -1},                        // empty text, capped out
      {std::string_view(text).substr(0, 64),
       std::string_view(text).substr(0, 64), 0, -1},  // exact match, k=0
  };
  for (const auto level : supportedLevels()) {
    simd::SimdBatchSolver solver(level);
    std::vector<int> got(problems.size(), -2);
    solver.solveDistanceBatch(genasm::Anchor::BothEnds, problems.data(),
                              problems.size(), got.data());
    EXPECT_EQ(got[0], -1);
    EXPECT_EQ(got[1], -1);
    // Empty text, pattern of 4: four insertions (or capped out at 2).
    EXPECT_EQ(got[2], 4);
    EXPECT_EQ(got[3], -1);
    EXPECT_EQ(got[4], 0);
  }
}

TEST(SimdWindowBatch, MatchesScalarSolveForBothSolvers) {
  util::Xoshiro256 rng(4242);
  std::vector<std::string> store;
  // Window-march shapes: patterns up to one window, tb limits like the
  // mid-window W-O truncation.
  const auto problems = randomProblems(rng, 64, 64, store);
  for (const auto anchor :
       {genasm::Anchor::StartOnly, genasm::Anchor::BothEnds}) {
    // Scalar references (improved, baseline), computed once for every
    // ISA level below.
    std::vector<genasm::WindowResult> wants[2];
    for (const bool baseline : {false, true}) {
      for (const auto& p : problems) {
        wants[baseline].push_back(scalarSolve(p, anchor, baseline));
      }
    }
    for (const auto level : supportedLevels()) {
      simd::SimdBatchSolver solver(level);
      std::vector<simd::WindowOutcome> got(problems.size());
      solver.solveWindowBatch(anchor, problems.data(), problems.size(),
                              got.data());
      for (std::size_t i = 0; i < problems.size(); ++i) {
        for (const bool baseline : {false, true}) {
          const auto& want = wants[baseline][i];
          EXPECT_EQ(got[i].ok, want.ok)
              << simd::isaName(level) << " i=" << i << " bl=" << baseline;
          if (!want.ok) continue;
          EXPECT_EQ(got[i].distance, want.distance) << i;
          EXPECT_EQ(got[i].edits, want.cigar.editDistance()) << i;
          EXPECT_EQ(got[i].text_consumed, want.cigar.targetLength()) << i;
          EXPECT_EQ(got[i].pattern_consumed, want.cigar.queryLength()) << i;
        }
      }
    }
  }
}

TEST(SimdWindowedMarch, MatchesScalarDistanceWindowedWithCaps) {
  util::Xoshiro256 rng(9090);
  for (const int window : {64, 128, 200, 300, 512}) {
    core::WindowConfig cfg;
    cfg.window = window;
    cfg.overlap = window / 3;
    std::vector<std::string> store;
    store.reserve(40);
    std::vector<core::BatchedDistanceRequest> requests;
    std::vector<int> want;
    for (int i = 0; i < 20; ++i) {
      const std::size_t qlen = 300 + rng.below(1200);
      store.push_back(common::randomSequence(rng, qlen + rng.below(200)));
      const std::string& t = store.back();
      store.push_back(
          common::mutateSequence(rng, t.substr(0, qlen), rng.below(qlen / 6)));
      const std::string& q = store.back();
      // Reference march (improved solver at the production width).
      core::ImprovedOptions opts;
      const int ed = core::distanceWindowedImproved(t, q, cfg, opts, -1);
      const int mode = static_cast<int>(rng.below(4));
      const int cap = mode == 0   ? -1
                      : mode == 1 ? ed
                      : mode == 2 ? (ed > 0 ? ed - 1 : 0)
                                  : ed / 2;
      requests.push_back({t, q, cap});
      want.push_back(core::distanceWindowedImproved(t, q, cfg, opts, cap));
      // The baseline march agrees with the improved one (shared
      // windowing, identical per-window results).
      EXPECT_EQ(core::distanceWindowedBaseline(t, q, cfg, cap), want.back());
    }
    for (const auto level : supportedLevels()) {
      simd::SimdBatchSolver solver(level);
      std::vector<int> got(requests.size(), -2);
      core::distanceWindowedBatch(solver, cfg, requests.data(),
                                  requests.size(), got.data());
      EXPECT_EQ(got, want) << simd::isaName(level) << " window=" << window;
    }
  }
}

// --------------------------------------------------------- batched align

/// alignBatch's contract is scalar solve() equality, cigar included.
void expectSameWindowResult(const genasm::WindowResult& got,
                            const genasm::WindowResult& want,
                            const std::string& ctx) {
  EXPECT_EQ(got.ok, want.ok) << ctx;
  if (!want.ok) return;
  EXPECT_EQ(got.distance, want.distance) << ctx;
  EXPECT_EQ(got.traceback_complete, want.traceback_complete) << ctx;
  EXPECT_EQ(got.cigar, want.cigar)
      << ctx << " got=" << got.cigar.str() << " want=" << want.cigar.str();
}

TEST(SimdBatchAlign, MatchesScalarSolveAcrossWidths) {
  // Width classes straddling every BitVec instantiation, both anchors,
  // every supported ISA: the batched alignment the engine's alignBatch
  // chunks ride on must reproduce the scalar solve cigar for cigar —
  // including tb_op_limit truncation and cap failures.
  for (const std::size_t max_m : {64UL, 128UL, 256UL, 512UL}) {
    util::Xoshiro256 rng(7000 + max_m);
    std::vector<std::string> store;
    const auto problems = randomProblems(rng, 40, max_m, store);
    for (const auto anchor :
         {genasm::Anchor::StartOnly, genasm::Anchor::BothEnds}) {
      // Scalar references (improved, baseline), computed once for every
      // ISA level below.
      std::vector<genasm::WindowResult> wants[2];
      for (const bool baseline : {false, true}) {
        for (const auto& p : problems) {
          wants[baseline].push_back(scalarSolve(p, anchor, baseline));
        }
      }
      for (const auto level : supportedLevels()) {
        simd::SimdBatchSolver solver(level);
        std::vector<genasm::WindowResult> got(problems.size());
        solver.alignBatch(anchor, problems.data(), problems.size(),
                          got.data());
        for (std::size_t i = 0; i < problems.size(); ++i) {
          for (const bool baseline : {false, true}) {
            expectSameWindowResult(
                got[i], wants[baseline][i],
                std::string(simd::isaName(level)) + " i=" +
                    std::to_string(i) + " max_m=" + std::to_string(max_m) +
                    " bl=" + std::to_string(baseline));
          }
        }
      }
    }
  }
}

TEST(SimdBatchAlign, EveryImprovedOptionsMaskAgrees) {
  // The lane solves ignore ImprovedOptions (they change the scalar
  // solver's storage/accounting, never its results); pin that against
  // all eight masks.
  util::Xoshiro256 rng(31337);
  std::vector<std::string> store;
  const auto problems = randomProblems(rng, 24, 96, store);
  simd::SimdBatchSolver solver;  // active ISA
  for (const auto anchor :
       {genasm::Anchor::StartOnly, genasm::Anchor::BothEnds}) {
    std::vector<genasm::WindowResult> got(problems.size());
    solver.alignBatch(anchor, problems.data(), problems.size(), got.data());
    for (int mask = 0; mask < 8; ++mask) {
      core::ImprovedOptions opts;
      opts.compress_entries = (mask & 1) != 0;
      opts.early_termination = (mask & 2) != 0;
      opts.traceback_pruning = (mask & 4) != 0;
      for (std::size_t i = 0; i < problems.size(); ++i) {
        expectSameWindowResult(
            got[i], scalarSolve(problems[i], anchor, false, opts),
            "mask=" + std::to_string(mask) + " i=" + std::to_string(i));
      }
    }
  }
}

TEST(SimdBatchAlign, RaggedBatchesAndShapeSortOffAreIdentical) {
  // Batch sizes around the lane count (partial final groups), with shape
  // sorting on and off: scatter-back must restore input order and the
  // results must be bit-identical either way.
  util::Xoshiro256 rng(555);
  std::vector<std::string> store;
  const auto all = randomProblems(rng, 40, 200, store);
  std::vector<genasm::WindowResult> wants;
  for (const auto& p : all) {
    wants.push_back(scalarSolve(p, genasm::Anchor::StartOnly, false));
  }
  for (const auto level : supportedLevels()) {
    simd::SimdBatchSolver sorted(level);
    simd::SimdBatchSolver unsorted(level);
    unsorted.setShapeSort(false);
    EXPECT_TRUE(sorted.shapeSort());
    EXPECT_FALSE(unsorted.shapeSort());
    const std::size_t lanes = static_cast<std::size_t>(sorted.lanes());
    for (const std::size_t batch :
         {std::size_t{1}, lanes, lanes + 3, all.size()}) {
      std::vector<genasm::WindowResult> a(batch), b(batch);
      sorted.alignBatch(genasm::Anchor::StartOnly, all.data(), batch,
                        a.data());
      unsorted.alignBatch(genasm::Anchor::StartOnly, all.data(), batch,
                          b.data());
      for (std::size_t i = 0; i < batch; ++i) {
        const std::string ctx = std::string(simd::isaName(level)) +
                                " batch=" + std::to_string(batch) +
                                " i=" + std::to_string(i);
        expectSameWindowResult(a[i], b[i], ctx + " (sort A/B)");
        expectSameWindowResult(a[i], wants[i], ctx);
      }
    }
  }
}

TEST(SimdBatchAlign, OccupancyStatsTrackPackingAndShapeSortReducesPadding) {
  // Alternating tiny/huge shapes: unsorted groups pad every tiny lane to
  // the huge geometry; shape sorting separates them into homogeneous
  // groups. The occupancy counters are what BENCH_pipeline.json reports.
  util::Xoshiro256 rng(808);
  std::vector<std::string> store;
  store.reserve(64);
  std::vector<simd::WindowProblem> problems;
  for (int i = 0; i < 32; ++i) {
    const bool big = (i % 2) == 0;
    store.push_back(common::randomSequence(rng, big ? 700 : 12));
    const std::string& text = store.back();
    store.push_back(common::randomSequence(rng, big ? 480 : 8));
    problems.push_back({text, store.back(), -1, -1});
  }
  simd::SimdBatchSolver sorted;
  simd::SimdBatchSolver unsorted;
  unsorted.setShapeSort(false);
  std::vector<genasm::WindowResult> outs(problems.size());
  sorted.alignBatch(genasm::Anchor::BothEnds, problems.data(),
                    problems.size(), outs.data());
  unsorted.alignBatch(genasm::Anchor::BothEnds, problems.data(),
                      problems.size(), outs.data());
  for (const auto* solver : {&sorted, &unsorted}) {
    const simd::BatchStats& s = solver->stats();
    EXPECT_GT(s.groups, 0u);
    EXPECT_EQ(s.lanes_filled, problems.size());
    EXPECT_GE(s.lane_slots, s.lanes_filled);
    EXPECT_GE(s.packed_words, s.useful_words);
    EXPECT_GT(s.useful_words, 0u);
  }
  // Same useful work either way; strictly less padded work when sorting
  // actually has lanes to group (more than one lane per group).
  EXPECT_EQ(sorted.stats().useful_words, unsorted.stats().useful_words);
  if (sorted.lanes() > 1) {
    EXPECT_LT(sorted.stats().packed_words, unsorted.stats().packed_words);
  }
  sorted.resetStats();
  EXPECT_EQ(sorted.stats().groups, 0u);
  EXPECT_EQ(sorted.stats().packed_words, 0u);
}

TEST(SimdBatchStats, LevelCountersMatchHandComputedValues) {
  // Eight equal-shape problems with known distances: text is 16 A's,
  // pattern is (16 - d) A's then d C's, so BothEnds d_min is exactly d
  // (each C needs its own edit; d substitutions suffice). With hints
  // off the groups are input-order runs of L lanes and each runs
  // max(d) + 1 levels; with the true distance as hint they are sorted
  // descending. Useful lane-levels are sum(d + 1) = 36 either way.
  const int dists[] = {0, 5, 1, 4, 2, 3, 7, 6};
  const std::string text(16, 'A');
  std::vector<std::string> patterns;
  for (const int d : dists) {
    patterns.push_back(std::string(16 - d, 'A') + std::string(d, 'C'));
  }
  std::vector<simd::WindowProblem> problems;
  for (const auto& pat : patterns) problems.push_back({text, pat, 16, -1});
  // lanes -> issued lane-levels, hints off / hints = true distance.
  const std::map<int, std::pair<std::uint64_t, std::uint64_t>> issued = {
      {1, {36, 36}},  // one lane per group: nothing idles
      {2, {2 * (6 + 5 + 4 + 8), 2 * (8 + 6 + 4 + 2)}},
      {4, {4 * (6 + 8), 4 * (8 + 4)}},
      {8, {8 * 8, 8 * 8}},  // one group: prepareOrder keeps input order
  };
  for (const auto level : supportedLevels()) {
    for (const bool hinted : {false, true}) {
      for (std::size_t i = 0; i < problems.size(); ++i) {
        problems[i].level_hint = hinted ? dists[i] : -1;
      }
      simd::SimdBatchSolver solver(level);
      const auto want = issued.at(solver.lanes());
      const std::uint64_t want_issued = hinted ? want.second : want.first;
      const std::string ctx = std::string(simd::isaName(level)) +
                              " hinted=" + std::to_string(hinted);
      std::vector<int> got(problems.size(), -2);
      solver.solveDistanceBatch(genasm::Anchor::BothEnds, problems.data(),
                                problems.size(), got.data());
      for (std::size_t i = 0; i < problems.size(); ++i) {
        EXPECT_EQ(got[i], dists[i]) << ctx << " i=" << i;
      }
      EXPECT_EQ(solver.stats().levels_useful, 36u) << ctx;
      EXPECT_EQ(solver.stats().levels_issued, want_issued) << ctx;
      // The persisted fill behind alignBatch runs the same levels.
      solver.resetStats();
      std::vector<genasm::WindowResult> outs(problems.size());
      solver.alignBatch(genasm::Anchor::BothEnds, problems.data(),
                        problems.size(), outs.data());
      EXPECT_EQ(solver.stats().levels_useful, 36u) << ctx;
      EXPECT_EQ(solver.stats().levels_issued, want_issued) << ctx;
    }
  }
  // A lane that reaches its cap retires after level k: k + 1 useful
  // levels, and no result.
  simd::SimdBatchSolver one(simd::IsaLevel::Scalar);
  const simd::WindowProblem capped{text, patterns[1], 2, -1};  // d = 5
  int d = -2;
  one.solveDistanceBatch(genasm::Anchor::BothEnds, &capped, 1, &d);
  EXPECT_EQ(d, -1);
  EXPECT_EQ(one.stats().levels_issued, 3u);
  EXPECT_EQ(one.stats().levels_useful, 3u);
}

TEST(SimdLevelHint, AnyHintGivesIdenticalResults) {
  // level_hint only steers packing. Absent, exact, reversed, shuffled
  // and absurd hints must all give the hint-free results, bit for bit,
  // from every entry point at every ISA level.
  util::Xoshiro256 rng(4711);
  std::vector<std::string> store;
  auto problems = randomProblems(rng, 72, 160, store);
  for (const auto anchor :
       {genasm::Anchor::StartOnly, genasm::Anchor::BothEnds}) {
    std::vector<genasm::WindowResult> wants;
    std::vector<int> want_dist;
    int max_d = 0;
    for (const auto& p : problems) {
      wants.push_back(scalarSolve(p, anchor, false));
      want_dist.push_back(scalarDistance(p, anchor, false));
      max_d = std::max(max_d, want_dist.back());
    }
    std::vector<std::vector<int>> hint_sets;
    hint_sets.emplace_back(problems.size(), -1);
    hint_sets.push_back(want_dist);
    std::vector<int> reversed_hints;
    for (const int d : want_dist) reversed_hints.push_back(max_d - d);
    hint_sets.push_back(reversed_hints);
    std::vector<int> shuffled = want_dist;
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.below(i)]);
    }
    hint_sets.push_back(shuffled);
    const int absurd[] = {std::numeric_limits<int>::max(),
                          std::numeric_limits<int>::min(), -1, 0, 1 << 20,
                          -7};
    std::vector<int> adversarial;
    for (std::size_t i = 0; i < problems.size(); ++i) {
      adversarial.push_back(absurd[i % std::size(absurd)]);
    }
    hint_sets.push_back(adversarial);

    for (const auto level : supportedLevels()) {
      simd::SimdBatchSolver solver(level);
      for (std::size_t h = 0; h < hint_sets.size(); ++h) {
        for (std::size_t i = 0; i < problems.size(); ++i) {
          problems[i].level_hint = hint_sets[h][i];
        }
        std::vector<int> dist(problems.size(), -2);
        std::vector<simd::WindowOutcome> outcomes(problems.size());
        std::vector<genasm::WindowResult> aligned(problems.size());
        solver.solveDistanceBatch(anchor, problems.data(), problems.size(),
                                  dist.data());
        solver.solveWindowBatch(anchor, problems.data(), problems.size(),
                                outcomes.data());
        solver.alignBatch(anchor, problems.data(), problems.size(),
                          aligned.data());
        for (std::size_t i = 0; i < problems.size(); ++i) {
          const std::string ctx = std::string(simd::isaName(level)) +
                                  " hints=" + std::to_string(h) +
                                  " i=" + std::to_string(i);
          const auto& want = wants[i];
          EXPECT_EQ(dist[i], want_dist[i]) << ctx;
          expectSameWindowResult(aligned[i], want, ctx);
          EXPECT_EQ(outcomes[i].ok, want.ok) << ctx;
          if (!want.ok) continue;
          EXPECT_EQ(outcomes[i].distance, want.distance) << ctx;
          EXPECT_EQ(outcomes[i].edits, want.cigar.editDistance()) << ctx;
          EXPECT_EQ(outcomes[i].text_consumed, want.cigar.targetLength())
              << ctx;
          EXPECT_EQ(outcomes[i].pattern_consumed, want.cigar.queryLength())
              << ctx;
        }
      }
    }
  }
}

TEST(SimdLevelHint, MarchHintsNeverLeakIntoResults) {
  // The batched marches hint each window with the request's previous
  // window distance. Hint-sorted lanes (shape sort on) and input-order
  // lanes (sort off, hints unused) must both reproduce the scalar
  // marches at every ISA level.
  util::Xoshiro256 rng(1701);
  for (const int window : {64, 200}) {
    core::WindowConfig cfg;
    cfg.window = window;
    cfg.overlap = window / 3;
    std::vector<std::string> store;
    store.reserve(24);
    std::vector<core::BatchedAlignRequest> areqs;
    std::vector<core::BatchedDistanceRequest> dreqs;
    std::vector<common::AlignmentResult> want_aln;
    std::vector<int> want_dist;
    for (int i = 0; i < 12; ++i) {
      const std::size_t qlen = 300 + rng.below(900);
      store.push_back(common::randomSequence(rng, qlen + rng.below(150)));
      const std::string& t = store.back();
      // Error rates from 0 to ~25% spread the window distances.
      store.push_back(common::mutateSequence(
          rng, t.substr(0, qlen), rng.below(qlen / 4 + 1)));
      const std::string& q = store.back();
      areqs.push_back({t, q});
      dreqs.push_back({t, q, -1});
      want_aln.push_back(core::alignWindowedImproved(t, q, cfg));
      want_dist.push_back(
          core::distanceWindowedImproved(t, q, cfg, core::ImprovedOptions{},
                                         -1));
    }
    for (const auto level : supportedLevels()) {
      for (const bool sort : {true, false}) {
        simd::SimdBatchSolver solver(level);
        solver.setShapeSort(sort);
        const std::string ctx = std::string(simd::isaName(level)) +
                                " window=" + std::to_string(window) +
                                " sort=" + std::to_string(sort);
        std::vector<common::AlignmentResult> aln(areqs.size());
        core::alignWindowedBatch(solver, cfg, areqs.data(), areqs.size(),
                                 aln.data());
        std::vector<int> dist(dreqs.size(), -2);
        core::distanceWindowedBatch(solver, cfg, dreqs.data(), dreqs.size(),
                                    dist.data());
        EXPECT_EQ(dist, want_dist) << ctx;
        for (std::size_t i = 0; i < areqs.size(); ++i) {
          EXPECT_EQ(aln[i].ok, want_aln[i].ok) << ctx << " i=" << i;
          EXPECT_EQ(aln[i].edit_distance, want_aln[i].edit_distance)
              << ctx << " i=" << i;
          EXPECT_EQ(aln[i].cigar, want_aln[i].cigar) << ctx << " i=" << i;
        }
        const simd::BatchStats& st = solver.stats();
        EXPECT_GT(st.levels_useful, 0u) << ctx;
        EXPECT_LE(st.levels_useful, st.levels_issued) << ctx;
      }
    }
  }
}

TEST(SimdWindowedMarch, AlignBatchedMatchesScalarAlignWindowed) {
  // The batched windowed-alignment march vs the scalar driver, full
  // AlignmentResult equality (ok, distance, score, cigar) for both
  // window solvers, plus degenerate requests.
  util::Xoshiro256 rng(2024);
  for (const int window : {64, 128, 200, 300, 512}) {
    core::WindowConfig cfg;
    cfg.window = window;
    cfg.overlap = window / 3;
    std::vector<std::string> store;
    store.reserve(40);
    std::vector<core::BatchedAlignRequest> requests;
    for (int i = 0; i < 14; ++i) {
      const std::size_t qlen = 200 + rng.below(1400);
      store.push_back(common::randomSequence(rng, qlen + rng.below(300)));
      const std::string& t = store.back();
      store.push_back(
          common::mutateSequence(rng, t.substr(0, qlen), rng.below(qlen / 5)));
      requests.push_back({t, store.back()});
    }
    const std::string long_t = common::randomSequence(rng, 500);
    requests.push_back({long_t, ""});                            // deletions
    requests.push_back({"", std::string_view(long_t).substr(0, 50)});
    requests.push_back({long_t, std::string_view(long_t).substr(0, 40)});
    // Scalar references, computed once for every ISA level below.
    std::vector<common::AlignmentResult> wants;
    std::vector<common::AlignmentResult> bases;
    for (const auto& req : requests) {
      wants.push_back(core::alignWindowedImproved(req.target, req.query, cfg));
      bases.push_back(core::alignWindowedBaseline(req.target, req.query, cfg));
    }
    for (const auto level : supportedLevels()) {
      simd::SimdBatchSolver solver(level);
      std::vector<common::AlignmentResult> got(requests.size());
      core::alignWindowedBatch(solver, cfg, requests.data(), requests.size(),
                               got.data());
      for (std::size_t i = 0; i < requests.size(); ++i) {
        const auto& want = wants[i];
        const std::string ctx = std::string(simd::isaName(level)) +
                                " window=" + std::to_string(window) +
                                " i=" + std::to_string(i);
        EXPECT_EQ(got[i].ok, want.ok) << ctx;
        EXPECT_EQ(got[i].edit_distance, want.edit_distance) << ctx;
        EXPECT_EQ(got[i].score, want.score) << ctx;
        EXPECT_EQ(got[i].cigar, want.cigar) << ctx;
        // The baseline driver commits the identical alignment.
        EXPECT_EQ(got[i].cigar, bases[i].cigar) << ctx;
      }
    }
  }
}

TEST(SimdWindowedMarch, SteadyStateBatchedMarchesAllocateNothing) {
  // The batched marches (alignment and distance) must be allocation-free
  // once their arenas are warm: re-running the same request set grows
  // neither the lane solver's arenas nor the march scratch.
  util::Xoshiro256 rng(606);
  std::vector<std::string> store;
  store.reserve(24);
  std::vector<core::BatchedAlignRequest> areqs;
  std::vector<core::BatchedDistanceRequest> dreqs;
  for (int i = 0; i < 12; ++i) {
    const std::size_t qlen = 600 + rng.below(900);
    store.push_back(common::randomSequence(rng, qlen + 100));
    const std::string& t = store.back();
    store.push_back(
        common::mutateSequence(rng, t.substr(0, qlen), rng.below(60)));
    areqs.push_back({t, store.back()});
    dreqs.push_back({t, store.back(), -1});
  }
  core::WindowConfig cfg;
  simd::SimdBatchSolver solver;
  core::WindowedBatchScratch scratch;
  std::vector<common::AlignmentResult> ares(areqs.size());
  std::vector<int> dres(dreqs.size());
  // Cold pass: arenas grow to the request set's peak geometry.
  core::alignWindowedBatch(solver, cfg, areqs.data(), areqs.size(),
                           ares.data(), scratch);
  core::distanceWindowedBatch(solver, cfg, dreqs.data(), dreqs.size(),
                              dres.data(), scratch);
  const std::uint64_t solver_cold = solver.scratchAllocs();
  const std::uint64_t scratch_cold = scratch.allocs();
  EXPECT_GT(solver_cold, 0u);
  EXPECT_GT(scratch_cold, 0u);
  // Warm passes: identical request set, identical sweep geometry — the
  // steady-state contract the bench's
  // steady_scratch_allocs_per_window == 0 figure reports.
  for (int rep = 0; rep < 3; ++rep) {
    core::alignWindowedBatch(solver, cfg, areqs.data(), areqs.size(),
                             ares.data(), scratch);
    core::distanceWindowedBatch(solver, cfg, dreqs.data(), dreqs.size(),
                                dres.data(), scratch);
  }
  EXPECT_EQ(solver.scratchAllocs(), solver_cold);
  EXPECT_EQ(scratch.allocs(), scratch_cold);
}

// The GenASM traceback is ONE implementation (genasm::walkTraceback):
// the baseline solver, the improved solver under every options mask, and
// the SIMD lane solver are probe+emit adapters over the same walk. This
// regression pins them op-for-op — including truncation at tb_op_limit
// and BothEnds bulk-deletion tails — so any future fork of the walk
// logic in one backend fails here.
TEST(TracebackUnification, AllBackendsCommitIdenticalOperationSequences) {
  util::Xoshiro256 rng(90210);
  std::vector<std::string> store;
  auto problems = randomProblems(rng, 32, 120, store);
  // Force tight traceback budgets on half the set so Truncated walks are
  // exercised, not just Complete ones.
  for (std::size_t i = 0; i < problems.size(); i += 2) {
    problems[i].tb_op_limit =
        static_cast<int>(1 + rng.below(problems[i].pattern.size() + 4));
  }
  simd::SimdBatchSolver solver;
  for (const auto anchor :
       {genasm::Anchor::StartOnly, genasm::Anchor::BothEnds}) {
    std::vector<genasm::WindowResult> lane(problems.size());
    solver.alignBatch(anchor, problems.data(), problems.size(), lane.data());
    for (std::size_t i = 0; i < problems.size(); ++i) {
      const auto base = scalarSolve(problems[i], anchor, true);
      const std::string ctx = "i=" + std::to_string(i) +
                              " tb=" + std::to_string(problems[i].tb_op_limit);
      expectSameWindowResult(lane[i], base, ctx + " (lane vs baseline)");
      for (int mask = 0; mask < 8; ++mask) {
        core::ImprovedOptions opts;
        opts.compress_entries = (mask & 1) != 0;
        opts.early_termination = (mask & 2) != 0;
        opts.traceback_pruning = (mask & 4) != 0;
        expectSameWindowResult(
            scalarSolve(problems[i], anchor, false, opts), base,
            ctx + " (improved mask " + std::to_string(mask) + ")");
      }
    }
  }
}

TEST(SimdWindowedMarch, EmptyAndShortRequests) {
  core::WindowConfig cfg;
  util::Xoshiro256 rng(3);
  const auto t = common::randomSequence(rng, 300);
  const std::vector<core::BatchedDistanceRequest> requests = {
      {t, "", -1},                                    // all deletions
      {t, "", 10},                                    // capped out
      {"", std::string_view(t).substr(0, 40), -1},    // all insertions
      {t, std::string_view(t).substr(0, 40), -1},     // final-window only
  };
  for (const auto level : supportedLevels()) {
    simd::SimdBatchSolver solver(level);
    std::vector<int> got(requests.size(), -2);
    core::distanceWindowedBatch(solver, cfg, requests.data(), requests.size(),
                                got.data());
    EXPECT_EQ(got[0], static_cast<int>(t.size()));
    EXPECT_EQ(got[1], -1);
    EXPECT_EQ(got[2], 40);
    core::WindowBuffers bufs;
    core::ImprovedWindowSolver<1> ref;
    EXPECT_EQ(got[3], core::distanceWindowed(ref, t,
                                             std::string_view(t).substr(0, 40),
                                             cfg, -1, bufs));
  }
}

}  // namespace
}  // namespace gx
