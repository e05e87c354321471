#pragma once
// Anchor chaining (minimap2's chaining DP, simplified): given co-linear
// seed anchors between a read and the reference, find high-scoring chains
// under a gap-cost model. All chains above the threshold are returned,
// mirroring the paper's use of minimap2 -P (keep all secondary chains).

#include <cstdint>
#include <vector>

namespace gx::mapper {

struct Anchor {
  std::uint32_t read_pos;
  std::uint32_t ref_pos;      ///< global (contig-table) coordinate
  std::uint32_t contig = 0;   ///< contig id; pairs never chain across ids
};

struct ChainParams {
  int kmer = 15;            ///< anchor width (score unit)
  int max_gap = 2'000;      ///< max ref/read gap between chained anchors
  int lookback = 64;        ///< DP predecessor window
  int min_anchors = 3;      ///< minimum anchors per emitted chain
  double gap_scale = 0.05;  ///< per-base penalty for gap-length mismatch
};

struct Chain {
  double score = 0;
  std::uint32_t read_begin = 0, read_end = 0;  ///< [begin, end) read span
  std::uint32_t ref_begin = 0, ref_end = 0;    ///< [begin, end) global ref span
  std::uint32_t contig = 0;  ///< every member anchor's contig
  int anchors = 0;
};

/// Reusable working arrays of chainAnchors: once they have grown to the
/// largest anchor set seen, chaining allocates nothing.
struct ChainScratch {
  std::vector<double> f;              ///< best chain score ending at i
  std::vector<std::int64_t> parent;   ///< predecessor of i, -1 if none
  std::vector<std::size_t> order;     ///< anchors by descending f
  std::vector<unsigned char> used;    ///< claimed by an emitted chain
  std::vector<std::size_t> members;   ///< the chain being walked
};

/// Chain `anchors` (single strand) into `out` (cleared first). Anchors
/// are sorted in place; a chain never links anchors from different
/// contigs, so each emitted chain lies within one contig (alignments
/// against the nonexistent sequence "between" contigs cannot arise).
/// Emits all chains with >= min_anchors anchors, best first.
void chainAnchors(std::vector<Anchor>& anchors, const ChainParams& params,
                  ChainScratch& scratch, std::vector<Chain>& out);

/// Allocating convenience over the scratch form.
[[nodiscard]] std::vector<Chain> chainAnchors(std::vector<Anchor> anchors,
                                              const ChainParams& params);

}  // namespace gx::mapper
