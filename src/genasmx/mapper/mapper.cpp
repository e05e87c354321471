#include "genasmx/mapper/mapper.hpp"

#include <algorithm>
#include <stdexcept>

#include "genasmx/common/sequence.hpp"
#include "genasmx/mapper/minimizer.hpp"

namespace gx::mapper {

Mapper::Mapper(refmodel::Reference ref, MapperConfig cfg,
               util::ThreadPool* index_pool)
    : cfg_(cfg) {
  cfg_.chain.kmer = cfg_.k;
  auto owned = std::make_unique<Owned>();
  owned->ref = std::move(ref);
  owned->index.build(owned->ref, cfg_.k, cfg_.w, cfg_.max_occ, index_pool);
  view_ = owned->index.view(owned->ref);
  owned_ = std::move(owned);
}

Mapper::Mapper(std::string genome, MapperConfig cfg)
    : Mapper(refmodel::Reference("ref", std::move(genome)), cfg) {}

Mapper::Mapper(IndexView view, MapperConfig cfg) : cfg_(cfg), view_(view) {
  if (!view_.valid()) {
    throw std::invalid_argument("Mapper: invalid IndexView");
  }
  // Seeding must extract read minimizers with the same k/w the index was
  // built with, and the occurrence cap is baked into the stored arrays.
  cfg_.k = view_.k();
  cfg_.w = view_.w();
  cfg_.max_occ = view_.maxOcc();
  cfg_.chain.kmer = cfg_.k;
}

std::vector<Candidate> Mapper::map(std::string_view read) const {
  SeedScratch scratch;
  std::vector<Minimizer> mins;
  std::vector<Candidate> out;
  map(read, scratch, mins, out);
  return out;
}

void Mapper::map(std::string_view read, SeedScratch& scratch,
                 std::vector<Minimizer>& mins_out,
                 std::vector<Candidate>& out) const {
  out.clear();
  extractMinimizers(read, cfg_.k, cfg_.w, 0, scratch.mins, scratch.ring);
  mins_out.assign(scratch.mins.begin(), scratch.mins.end());
  if (scratch.mins.empty()) return;
  const refmodel::Reference& ref = reference();

  // Split anchors by relative strand. For minus-strand anchors, flip the
  // read coordinate so chaining sees a co-linear picture. Anchors carry
  // their contig id so the chaining DP can reject cross-contig pairs.
  std::vector<Anchor>& fwd = scratch.fwd;
  std::vector<Anchor>& rev = scratch.rev;
  fwd.clear();
  rev.clear();
  const std::uint32_t rl = static_cast<std::uint32_t>(read.size());
  for (const Minimizer& m : scratch.mins) {
    for (const IndexHit hit : view_.lookup(m.key)) {
      const std::uint32_t contig = ref.contigOf(hit.pos);
      const bool opposite = hit.reverse != m.reverse;
      if (!opposite) {
        fwd.push_back(Anchor{m.pos, hit.pos, contig});
      } else {
        rev.push_back(Anchor{
            rl - m.pos - static_cast<std::uint32_t>(cfg_.k), hit.pos, contig});
      }
    }
  }

  chainAnchors(fwd, cfg_.chain, scratch.chain, scratch.fwd_chains);
  chainAnchors(rev, cfg_.chain, scratch.chain, scratch.rev_chains);
  out.reserve(scratch.fwd_chains.size() + scratch.rev_chains.size());
  auto emit = [&](const std::vector<Chain>& chains, bool reverse) {
    for (const Chain& c : chains) {
      const refmodel::Contig& contig = ref.contig(c.contig);
      Candidate cand;
      cand.contig = c.contig;
      cand.reverse = reverse;
      cand.score = c.score;
      cand.anchors = c.anchors;
      cand.read_begin = c.read_begin;
      cand.read_end = std::min<std::size_t>(c.read_end, read.size());
      // Extend the chain's reference span by the unchained read flanks
      // plus a fixed margin, clamped to the chain's contig: a candidate
      // window never spans a contig boundary.
      const std::size_t local_begin = c.ref_begin - contig.offset;
      const std::size_t local_end = c.ref_end - contig.offset;
      const std::size_t left_flank = c.read_begin + cfg_.margin;
      const std::size_t right_flank =
          (read.size() - c.read_end) + cfg_.margin;
      cand.ref_begin = local_begin > left_flank ? local_begin - left_flank : 0;
      cand.ref_end = std::min(contig.length, local_end + right_flank);
      out.push_back(cand);
    }
  };
  emit(scratch.fwd_chains, false);
  emit(scratch.rev_chains, true);
  std::sort(out.begin(), out.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.score > b.score;
            });
}

std::vector<AlignmentPair> buildAlignmentPairs(const Mapper& mapper,
                                               std::string_view read,
                                               std::size_t max_candidates) {
  std::vector<AlignmentPair> pairs;
  const auto candidates = mapper.map(read);
  const std::size_t n = std::min(candidates.size(), max_candidates);
  pairs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Candidate& c = candidates[i];
    AlignmentPair p;
    p.target = std::string(mapper.candidateText(c));
    p.query = c.reverse ? common::reverseComplement(read) : std::string(read);
    pairs.push_back(std::move(p));
  }
  return pairs;
}

}  // namespace gx::mapper
