// Differential libFuzzer harness for the four GenASM backends (baseline,
// improved, windowed-baseline, windowed-improved). Bytes decode into a
// target, a query of at most 1.5 kb drawn from it, a result cap, a
// valid window geometry and the SIMD lane kernel (ISA level) the batched
// entries run on. For every backend the harness checks that
//   * the align() cigar verifies as a global alignment of its cost;
//   * distance() honours its cap contract against align();
//   * alignBatch()/distanceBatch() equal the per-task scalar results;
//   * global backends equal the edit-dp oracle when the query is
//     <= 512 bp, and no backend ever reports less than the oracle.
// Any disagreement prints the case and aborts. Build with
// -DGENASMX_FUZZ=ON; without libFuzzer the standalone driver replays the
// committed corpus (fuzz/corpus/aligners/).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "genasmx/common/sequence.hpp"
#include "genasmx/common/verify.hpp"
#include "genasmx/engine/registry.hpp"
#include "genasmx/refdp/edit_dp.hpp"
#include "genasmx/simd/dispatch.hpp"
#include "genasmx/util/prng.hpp"

namespace {

using gx::common::AlignmentResult;

constexpr int kWindows[] = {32, 48, 64, 100, 128, 200, 256, 300, 384, 512};
constexpr std::size_t kMaxQuery = 1500;
constexpr std::size_t kGlobalMax = 512;
/// Picked by the ISA byte, then clamped to what the build and CPU run.
/// Byte 0 (also an input that ends before it) picks the widest kernel.
constexpr gx::simd::IsaLevel kIsas[] = {
    gx::simd::IsaLevel::Avx512, gx::simd::IsaLevel::Avx2,
    gx::simd::IsaLevel::Sse2, gx::simd::IsaLevel::Scalar};

/// Reads the input front to back; past the end it yields zeros, so every
/// byte string decodes to some case.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  std::uint32_t u8() { return pos_ < size_ ? data_[pos_++] : 0; }
  std::uint32_t u16() { return u8() | (u8() << 8); }
  std::uint32_t u32() { return u16() | (u16() << 16); }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

struct Case {
  std::string target;
  std::string query;
  gx::engine::AlignerConfig cfg;
  int oracle = 0;  ///< refdp::editDistance(target, query)
  int cap = -1;
  gx::simd::IsaLevel isa = gx::simd::IsaLevel::Scalar;
};

Case decode(const std::uint8_t* data, std::size_t size) {
  ByteReader in(data, size);
  Case c;
  gx::core::WindowConfig& w = c.cfg.window;
  w.window = kWindows[in.u8() % std::size(kWindows)];
  w.overlap = 1 + static_cast<int>(in.u16() % (w.window - 1));
  // Lookahead stays within the default's window/2 to bound the DP size.
  const std::uint32_t la = in.u8();
  w.lookahead = la == 0 ? -1 : static_cast<int>(la % (w.window / 2 + 1));
  // A quarter of the cases cap each window's levels, so windows can fail.
  const std::uint32_t me = in.u8();
  w.max_edits = me < 192 ? -1 : static_cast<int>(me % w.window);

  gx::util::Xoshiro256 rng(in.u32());
  const std::size_t qlen = in.u16() % (kMaxQuery + 1);
  const std::size_t edits = in.u16() % (qlen / 4 + 1);
  const std::uint32_t flanks = in.u8();
  const std::uint32_t cap_byte = in.u8();
  const bool unrelated = (in.u8() & 1) != 0;
  c.isa = gx::simd::clampIsa(kIsas[in.u8() % std::size(kIsas)]);

  const std::string source = gx::common::randomSequence(rng, qlen);
  c.target = gx::common::randomSequence(rng, (flanks & 15) * 4) + source +
             gx::common::randomSequence(rng, (flanks >> 4) * 4);
  c.query = unrelated ? gx::common::randomSequence(rng, qlen)
                      : gx::common::mutateSequence(rng, source, edits);
  if (c.query.size() > kMaxQuery) c.query.resize(kMaxQuery);
  c.oracle = gx::refdp::editDistance(c.target, c.query);
  // The cap lands near the oracle, where the contract's boundary lies;
  // 255 means uncapped.
  c.cap = cap_byte == 255
              ? -1
              : std::max(0, c.oracle + static_cast<int>(cap_byte % 17) - 8);
  return c;
}

[[noreturn]] void fail(const Case& c, std::string_view backend,
                       std::string_view what) {
  std::fprintf(stderr,
               "fuzz_aligners: %.*s: %.*s\n  W=%d O=%d lookahead=%d "
               "max_edits=%d cap=%d isa=%s\n  target=%s\n  query=%s\n",
               static_cast<int>(backend.size()), backend.data(),
               static_cast<int>(what.size()), what.data(), c.cfg.window.window,
               c.cfg.window.overlap, c.cfg.window.lookahead,
               c.cfg.window.max_edits, c.cap,
               std::string(gx::simd::isaName(c.isa)).c_str(), c.target.c_str(),
               c.query.c_str());
  std::abort();
}

bool sameResult(const AlignmentResult& a, const AlignmentResult& b) {
  return a.ok == b.ok && a.edit_distance == b.edit_distance &&
         a.score == b.score && a.cigar == b.cigar;
}

/// distance()'s contract: align()'s cost when it exists and is <= cap
/// (cap < 0 = uncapped), else -1.
int cappedCost(const AlignmentResult& a, int cap) {
  if (!a.ok) return -1;
  return (cap >= 0 && a.edit_distance > cap) ? -1 : a.edit_distance;
}

void checkBackend(const Case& c, std::string_view name) {
  const gx::engine::AlignerPtr aligner = gx::engine::makeAligner(name, c.cfg);
  const std::string_view t = c.target;
  const std::string_view q = c.query;

  const AlignmentResult a = aligner->align(t, q);
  if (a.ok) {
    const gx::common::VerifyResult v =
        gx::common::verifyAlignment(t, q, a.cigar);
    if (!v.valid) fail(c, name, "align cigar does not verify: " + v.error);
    if (v.cost != static_cast<std::uint64_t>(a.edit_distance) ||
        a.score != -a.edit_distance) {
      fail(c, name, "align cost disagrees with its cigar");
    }
    if (a.edit_distance < c.oracle) fail(c, name, "align below the oracle");
  }
  const bool global = name == "baseline" || name == "improved";
  if (global && q.size() <= kGlobalMax &&
      (!a.ok || a.edit_distance != c.oracle)) {
    fail(c, name, "global align differs from the oracle");
  }
  if (aligner->distance(t, q, c.cap) != cappedCost(a, c.cap)) {
    fail(c, name, "capped distance breaks its contract");
  }
  if (aligner->distance(t, q, -1) != cappedCost(a, -1)) {
    fail(c, name, "uncapped distance differs from align");
  }

  // Batched entries vs the per-task scalar calls, over a ragged batch
  // that mixes global-sized, marched and degenerate problems.
  const std::vector<gx::engine::AlignmentTask> tasks = {
      {t, q},
      {t, q.substr(0, q.size() / 2)},
      {t.substr(t.size() / 3), q.substr(q.size() / 3)},
      {t, ""},
      {"", q.substr(0, 40)},
      {t.substr(0, 90), q.substr(0, 70)},
  };
  std::vector<gx::engine::DistanceTask> dtasks;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    dtasks.push_back({tasks[i].target, tasks[i].query,
                      i % 2 == 0 ? c.cap : -1});
  }
  std::vector<AlignmentResult> got(tasks.size());
  aligner->alignBatch(tasks.data(), tasks.size(), got.data());
  std::vector<int> dgot(dtasks.size(), -2);
  aligner->distanceBatch(dtasks.data(), dtasks.size(), dgot.data());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (!sameResult(got[i], aligner->align(tasks[i].target, tasks[i].query))) {
      fail(c, name, "alignBatch differs from align, task " + std::to_string(i));
    }
    if (dgot[i] !=
        aligner->distance(dtasks[i].target, dtasks[i].query, dtasks[i].cap)) {
      fail(c, name,
           "distanceBatch differs from distance, task " + std::to_string(i));
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const Case c = decode(data, size);
  // Every aligner built below packs its batches with this kernel.
  gx::simd::forceIsa(c.isa);
  for (const std::string_view name :
       {"baseline", "improved", "windowed-baseline", "windowed-improved"}) {
    checkBackend(c, name);
  }
  return 0;
}
