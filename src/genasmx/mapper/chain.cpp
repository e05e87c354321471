#include "genasmx/mapper/chain.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace gx::mapper {

std::vector<Chain> chainAnchors(std::vector<Anchor> anchors,
                                const ChainParams& params) {
  ChainScratch scratch;
  std::vector<Chain> chains;
  chainAnchors(anchors, params, scratch, chains);
  return chains;
}

void chainAnchors(std::vector<Anchor>& anchors, const ChainParams& params,
                  ChainScratch& scratch, std::vector<Chain>& chains) {
  chains.clear();
  const std::size_t n = anchors.size();
  if (n == 0) return;
  std::sort(anchors.begin(), anchors.end(), [](const Anchor& a, const Anchor& b) {
    return a.ref_pos != b.ref_pos ? a.ref_pos < b.ref_pos
                                  : a.read_pos < b.read_pos;
  });

  std::vector<double>& f = scratch.f;
  std::vector<std::int64_t>& parent = scratch.parent;
  f.resize(n);
  parent.assign(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    f[i] = params.kmer;  // chain of just this anchor
    const std::size_t j0 =
        i > static_cast<std::size_t>(params.lookback)
            ? i - static_cast<std::size_t>(params.lookback)
            : 0;
    for (std::size_t j = i; j-- > j0;) {
      const std::int64_t dr = static_cast<std::int64_t>(anchors[i].ref_pos) -
                              anchors[j].ref_pos;
      const std::int64_t dq = static_cast<std::int64_t>(anchors[i].read_pos) -
                              anchors[j].read_pos;
      if (anchors[i].contig != anchors[j].contig) continue;
      if (dr <= 0 || dq <= 0) continue;
      if (dr > params.max_gap || dq > params.max_gap) continue;
      const double gap_cost =
          params.gap_scale * static_cast<double>(std::llabs(dr - dq));
      const double gain =
          static_cast<double>(std::min<std::int64_t>(
              {dr, dq, static_cast<std::int64_t>(params.kmer)})) -
          gap_cost;
      const double cand = f[j] + gain;
      if (cand > f[i]) {
        f[i] = cand;
        parent[i] = static_cast<std::int64_t>(j);
      }
    }
  }

  // Emit all chains best-first; each anchor belongs to one chain.
  std::vector<std::size_t>& order = scratch.order;
  order.resize(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return f[a] > f[b]; });
  std::vector<unsigned char>& used = scratch.used;
  used.assign(n, 0);
  std::vector<std::size_t>& members = scratch.members;
  for (std::size_t oi : order) {
    if (used[oi] != 0) continue;
    // Walk the chain; abort if it runs into an anchor already claimed by
    // a better chain (this tail was already reported).
    members.clear();
    std::int64_t cur = static_cast<std::int64_t>(oi);
    bool clean = true;
    while (cur >= 0) {
      if (used[static_cast<std::size_t>(cur)] != 0) {
        clean = false;
        break;
      }
      members.push_back(static_cast<std::size_t>(cur));
      cur = parent[static_cast<std::size_t>(cur)];
    }
    for (std::size_t m : members) used[m] = 1;
    if (!clean && members.size() < static_cast<std::size_t>(params.min_anchors)) {
      continue;
    }
    if (members.size() < static_cast<std::size_t>(params.min_anchors)) continue;
    Chain c;
    c.score = f[oi];
    c.anchors = static_cast<int>(members.size());
    const Anchor& first = anchors[members.back()];
    const Anchor& last = anchors[members.front()];
    c.read_begin = first.read_pos;
    c.read_end = last.read_pos + static_cast<std::uint32_t>(params.kmer);
    c.ref_begin = first.ref_pos;
    c.ref_end = last.ref_pos + static_cast<std::uint32_t>(params.kmer);
    c.contig = first.contig;
    chains.push_back(c);
  }
}

}  // namespace gx::mapper
