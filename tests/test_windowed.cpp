#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <tuple>

#include "genasmx/common/sequence.hpp"
#include "genasmx/common/verify.hpp"
#include "genasmx/core/windowed.hpp"
#include "genasmx/refdp/edit_dp.hpp"
#include "genasmx/util/prng.hpp"

namespace gx::core {
namespace {

TEST(WindowConfig, Validation) {
  WindowConfig ok;
  EXPECT_NO_THROW(ok.validate());
  WindowConfig bad_w;
  bad_w.window = 1;
  EXPECT_THROW(bad_w.validate(), std::invalid_argument);
  WindowConfig huge_w;
  huge_w.window = 1000;
  EXPECT_THROW(huge_w.validate(), std::invalid_argument);
  WindowConfig bad_o;
  bad_o.overlap = 0;
  EXPECT_THROW(bad_o.validate(), std::invalid_argument);
  WindowConfig o_ge_w;
  o_ge_w.window = 32;
  o_ge_w.overlap = 32;
  EXPECT_THROW(o_ge_w.validate(), std::invalid_argument);
}

TEST(Windowed, IdenticalSequencesAlignPerfectly) {
  util::Xoshiro256 rng(1);
  const auto s = common::randomSequence(rng, 1000);
  const auto res = alignWindowedImproved(s, s);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.edit_distance, 0);
  EXPECT_EQ(res.cigar.str(), "1000=");
}

TEST(Windowed, EmptyInputs) {
  EXPECT_EQ(alignWindowedImproved("", "").edit_distance, 0);
  EXPECT_EQ(alignWindowedImproved("ACGT", "").cigar.str(), "4D");
  EXPECT_EQ(alignWindowedImproved("", "ACGT").cigar.str(), "4I");
}

TEST(Windowed, ShortInputsBelowOneWindow) {
  // Everything fits in the final (global) window => exact distances.
  util::Xoshiro256 rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    const auto t = common::randomSequence(rng, 1 + rng.below(60));
    const auto q = common::mutateSequence(rng, t, rng.below(6));
    if (q.empty()) continue;
    const auto res = alignWindowedImproved(t, q);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.edit_distance, refdp::editDistance(t, q));
    EXPECT_TRUE(common::verifyAlignment(t, q, res.cigar).valid);
  }
}

// Windowed alignment is a heuristic: always valid, cost >= optimal, and
// near-optimal at realistic long-read error rates.
class WindowedQuality
    : public ::testing::TestWithParam<std::tuple<int, int>> {};  // len, err%

TEST_P(WindowedQuality, ValidAndNearOptimal) {
  const auto [len, err_pct] = GetParam();
  util::Xoshiro256 rng(static_cast<std::uint64_t>(len) * 131 + err_pct);
  for (int trial = 0; trial < 3; ++trial) {
    const auto t = common::randomSequence(rng, static_cast<std::size_t>(len));
    const auto q = common::mutateSequence(
        rng, t, static_cast<std::size_t>(len) * err_pct / 100);
    const int oracle = refdp::editDistance(t, q);
    const auto res = alignWindowedImproved(t, q);
    ASSERT_TRUE(res.ok);
    const auto v = common::verifyAlignment(t, q, res.cigar);
    ASSERT_TRUE(v.valid) << v.error;
    EXPECT_EQ(static_cast<int>(v.cost), res.edit_distance);
    EXPECT_GE(res.edit_distance, oracle);
    // Generous quality bound; EXPERIMENTS.md tracks the typical overhead,
    // which is far smaller at long-read error rates.
    EXPECT_LE(res.edit_distance, oracle * 2 + 8)
        << "len=" << len << " err=" << err_pct << "%";
  }
}

INSTANTIATE_TEST_SUITE_P(
    LenByError, WindowedQuality,
    ::testing::Combine(::testing::Values(200, 500, 1200),
                       ::testing::Values(0, 1, 5, 10, 15)),
    [](const auto& info) {
      return "len" + std::to_string(std::get<0>(info.param)) + "_err" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Windowed, BaselineAndImprovedProduceIdenticalAlignments) {
  // Shared windowing + identical recurrence + identical traceback priority
  // => bit-identical output, independent of all improvement toggles.
  util::Xoshiro256 rng(3);
  for (int trial = 0; trial < 6; ++trial) {
    const auto t = common::randomSequence(rng, 400 + rng.below(400));
    const auto q = common::mutateSequence(rng, t, 30 + rng.below(30));
    const auto rb = alignWindowedBaseline(t, q);
    const auto ri = alignWindowedImproved(t, q);
    ASSERT_TRUE(rb.ok);
    ASSERT_TRUE(ri.ok);
    EXPECT_EQ(rb.edit_distance, ri.edit_distance);
    EXPECT_EQ(rb.cigar, ri.cigar);
  }
}

TEST(Windowed, AblationVariantsProduceIdenticalAlignments) {
  util::Xoshiro256 rng(4);
  const auto t = common::randomSequence(rng, 700);
  const auto q = common::mutateSequence(rng, t, 60);
  const auto reference = alignWindowedImproved(t, q);
  ASSERT_TRUE(reference.ok);
  for (int mask = 0; mask < 8; ++mask) {
    ImprovedOptions o;
    o.compress_entries = mask & 1;
    o.early_termination = mask & 2;
    o.traceback_pruning = mask & 4;
    const auto res = alignWindowedImproved(t, q, WindowConfig{}, o);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.cigar, reference.cigar) << "mask=" << mask;
  }
}

class WindowedConfigSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};  // W, O

TEST_P(WindowedConfigSweep, ValidAcrossWindowGeometometry) {
  const auto [W, O] = GetParam();
  WindowConfig cfg;
  cfg.window = W;
  cfg.overlap = O;
  util::Xoshiro256 rng(static_cast<std::uint64_t>(W) * 1000 + O);
  const auto t = common::randomSequence(rng, 600);
  const auto q = common::mutateSequence(rng, t, 45);
  const auto res = alignWindowedImproved(t, q, cfg);
  ASSERT_TRUE(res.ok) << "W=" << W << " O=" << O;
  const auto v = common::verifyAlignment(t, q, res.cigar);
  ASSERT_TRUE(v.valid) << v.error;
  EXPECT_GE(res.edit_distance, refdp::editDistance(t, q));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, WindowedConfigSweep,
    ::testing::Values(std::tuple{32, 8}, std::tuple{32, 16},
                      std::tuple{48, 16}, std::tuple{64, 16},
                      std::tuple{64, 24}, std::tuple{64, 32},
                      std::tuple{96, 32}, std::tuple{128, 48},
                      std::tuple{256, 64}, std::tuple{300, 100},
                      std::tuple{512, 128}),
    [](const auto& info) {
      return "W" + std::to_string(std::get<0>(info.param)) + "_O" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Windowed, TargetMuchLongerThanQuery) {
  // Candidate regions can carry extra reference margin; the alignment must
  // stay valid, absorbing the slack as deletions.
  util::Xoshiro256 rng(5);
  const auto q = common::randomSequence(rng, 150);
  const auto t = q + common::randomSequence(rng, 300);
  const auto res = alignWindowedImproved(t, q);
  ASSERT_TRUE(res.ok);
  EXPECT_TRUE(common::verifyAlignment(t, q, res.cigar).valid);
}

TEST(Windowed, QueryMuchLongerThanTarget) {
  util::Xoshiro256 rng(6);
  const auto t = common::randomSequence(rng, 150);
  const auto q = t + common::randomSequence(rng, 300);
  const auto res = alignWindowedImproved(t, q);
  ASSERT_TRUE(res.ok);
  EXPECT_TRUE(common::verifyAlignment(t, q, res.cigar).valid);
}

TEST(Windowed, LongReadRealisticScale) {
  // One 10kb read at ~10% error: the paper's workload shape.
  util::Xoshiro256 rng(7);
  const auto t = common::randomSequence(rng, 10000);
  const auto q = common::mutateSequence(rng, t, 1000);
  const auto res = alignWindowedImproved(t, q);
  ASSERT_TRUE(res.ok);
  const auto v = common::verifyAlignment(t, q, res.cigar);
  ASSERT_TRUE(v.valid) << v.error;
  EXPECT_LE(res.edit_distance, 2200);  // sane cost for ~1000 true edits
}

TEST(Windowed, MemStatsAccumulateAcrossWindows) {
  util::Xoshiro256 rng(8);
  const auto t = common::randomSequence(rng, 1000);
  const auto q = common::mutateSequence(rng, t, 80);
  util::MemStats stats;
  const auto res = alignWindowedImproved(t, q, WindowConfig{},
                                         ImprovedOptions{}, &stats);
  ASSERT_TRUE(res.ok);
  EXPECT_GT(stats.problems, 10u);  // ~1000/40 windows
  EXPECT_GT(stats.dp_stores, 0u);
  // Peak footprint is per-window, not per-read: must stay tiny.
  EXPECT_LT(stats.bytes_peak, 64u * 1024u);
}

}  // namespace
}  // namespace gx::core
