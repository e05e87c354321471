#pragma once
// Test-side reference for primary-only mapping: the uncapped single-phase
// flow. Every candidate is fully aligned (no distance caps, no sketch
// prefilter, no kept chain-best alignment), candidates fold in chain
// order under the pipeline's best/second-best rule, and the winner is
// emitted with the distance MAPQ. MappingPipeline's primary-only flow
// (capped phase-1 scoring, one traceback per winner) must emit
// byte-identical PAF to this; no runtime flag reaches it.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "genasmx/common/cigar.hpp"
#include "genasmx/common/sequence.hpp"
#include "genasmx/engine/engine.hpp"
#include "genasmx/io/fastx.hpp"
#include "genasmx/io/paf.hpp"
#include "genasmx/pipeline/pipeline.hpp"

namespace gx::testref {

/// Distance MAPQ: full cap with no runner-up, 0 on a tie, saturating
/// once the runner-up has twice the winner's distance.
inline int distanceMapq(int d1, int d2, int cap) {
  if (d1 < 0) return 0;
  if (d2 < 0) return cap;
  if (d2 <= d1) return 0;
  const double frac =
      2.0 * (1.0 - static_cast<double>(d1) / static_cast<double>(d2));
  return std::clamp(static_cast<int>(std::lround(cap * std::min(frac, 1.0))),
                    0, cap);
}

/// Primary-only records for `reads`, computed with `pipe`'s mapper,
/// engine and config (max_candidates, mapq_cap) — grouped by read in
/// input order, exactly one record per mapped read.
inline std::vector<io::PafRecord> singlePhasePrimary(
    pipeline::MappingPipeline& pipe,
    const std::vector<io::FastxRecord>& reads) {
  const mapper::Mapper& mapper = pipe.mapper();
  const refmodel::Reference& ref = mapper.reference();
  const pipeline::PipelineConfig& cfg = pipe.config();

  std::vector<std::vector<mapper::Candidate>> cands(reads.size());
  std::vector<std::string> rc(reads.size());
  std::vector<engine::AlignmentTask> tasks;
  for (std::size_t i = 0; i < reads.size(); ++i) {
    cands[i] = mapper.map(reads[i].seq);
    if (cands[i].size() > cfg.max_candidates) {
      cands[i].resize(cfg.max_candidates);
    }
    rc[i] = common::reverseComplement(reads[i].seq);
  }
  for (std::size_t i = 0; i < reads.size(); ++i) {
    for (const auto& c : cands[i]) {
      tasks.push_back({mapper.candidateText(c),
                       c.reverse ? std::string_view(rc[i])
                                 : std::string_view(reads[i].seq)});
    }
  }
  const auto results = pipe.engine().alignBatch(tasks);

  std::vector<io::PafRecord> out;
  std::size_t next = 0;
  for (std::size_t i = 0; i < reads.size(); ++i) {
    const auto& read = reads[i];
    int win = -1, d1 = -1, d2 = -1;
    for (std::size_t c = 0; c < cands[i].size(); ++c) {
      const auto& res = results[next + c];
      if (!res.ok) continue;
      const int d = static_cast<int>(res.cigar.editDistance());
      if (win < 0 || d < d1) {
        d2 = d1;
        d1 = d;
        win = static_cast<int>(c);
      } else if (d2 < 0 || d < d2) {
        d2 = d;
      }
    }
    if (cands[i].empty()) continue;
    const auto& cand = cands[i][win < 0 ? 0 : static_cast<std::size_t>(win)];
    io::PafRecord rec;
    rec.query_name = read.name;
    rec.query_len = read.seq.size();
    rec.reverse = cand.reverse;
    rec.target_name = ref.name(cand.contig);
    rec.target_len = ref.contig(cand.contig).length;
    std::size_t qb = cand.read_begin, qe = cand.read_end;
    if (win < 0) {  // nothing aligned: CIGAR-less chain record
      rec.target_begin = cand.ref_begin;
      rec.target_end = cand.ref_end;
      rec.mapq = 0;
    } else {
      // Trim the window slack's boundary indels off the PAF span.
      auto trim = common::trimIndelEnds(
          results[next + static_cast<std::size_t>(win)].cigar);
      rec.cigar = std::move(trim.cigar);
      qb = trim.query_lead;
      qe = qb + rec.cigar.queryLength();
      rec.target_begin = cand.ref_begin + trim.target_lead;
      rec.target_end = rec.target_begin + rec.cigar.targetLength();
      rec.mapq = distanceMapq(d1, d2, cfg.mapq_cap);
    }
    rec.query_begin = rec.reverse ? read.seq.size() - qe : qb;
    rec.query_end = rec.reverse ? read.seq.size() - qb : qe;
    if (win >= 0) io::finalizeFromCigar(rec);
    out.push_back(std::move(rec));
    next += cands[i].size();
  }
  return out;
}

/// The PAF text io::PafWriter writes for `records`.
inline std::string pafText(const std::vector<io::PafRecord>& records) {
  std::string out;
  for (const auto& rec : records) {
    out += io::toPafLine(rec);
    out += '\n';
  }
  return out;
}

}  // namespace gx::testref
