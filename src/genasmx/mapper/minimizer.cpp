#include "genasmx/mapper/minimizer.hpp"

#include <bit>
#include <stdexcept>

#include "genasmx/common/sequence.hpp"

namespace gx::mapper {

std::vector<Minimizer> extractMinimizers(std::string_view seq, int k, int w,
                                         std::size_t emit_from) {
  std::vector<Minimizer> out;
  MinimizerScratch scratch;
  extractMinimizers(seq, k, w, emit_from, out, scratch);
  return out;
}

void extractMinimizers(std::string_view seq, int k, int w,
                       std::size_t emit_from, std::vector<Minimizer>& out,
                       MinimizerScratch& scratch) {
  if (k < 4 || k > 31) throw std::invalid_argument("minimizer: k in [4,31]");
  if (w < 1) throw std::invalid_argument("minimizer: w >= 1");
  out.clear();
  const std::size_t out_cap = out.capacity();
  const std::size_t n = seq.size();
  if (n < static_cast<std::size_t>(k)) return;

  const std::uint64_t mask = (k == 32) ? ~0ULL : ((1ULL << (2 * k)) - 1);
  const int shift = 2 * (k - 1);
  std::uint64_t fwd = 0, rev = 0;

  // Monotone deque over the last w k-mer ranks (sliding-window minimum,
  // O(1) amortized per position), backed by a reused circular buffer.
  // Ties pop equal keys from the back, so the front is always the
  // *newest* occurrence of the window's minimal key — exactly the pick
  // the original O(w) window rescan made (min key, then max pos), which
  // keeps every downstream byte (index, seeding, PAF) identical while
  // making extraction cheap enough to sketch candidate windows with.
  // The ring's capacity is w rounded up to a power of two, so slots are
  // picked with a mask rather than a division by the runtime w.
  using Entry = MinimizerScratch::Entry;
  const std::size_t wz = static_cast<std::size_t>(w);
  const std::size_t cap = std::bit_ceil(wz);
  if (scratch.ring_.capacity() < cap) ++scratch.grow_events_;
  scratch.ring_.resize(cap);
  Entry* const ring = scratch.ring_.data();
  const std::size_t ring_mask = cap - 1;
  std::size_t dq_head = 0, dq_tail = 0;  ///< logical deque range [head, tail)
  std::uint32_t last_pos = ~0u;

  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t code = common::baseCode(seq[i]);
    fwd = ((fwd << 2) | code) & mask;
    rev = (rev >> 2) | ((3ULL ^ code) << shift);
    if (i + 1 < static_cast<std::size_t>(k)) continue;
    const std::uint32_t pos = static_cast<std::uint32_t>(i + 1 - k);
    const bool use_rev = rev < fwd;
    const std::uint64_t key = hash64(use_rev ? rev : fwd);
    // Expire entries that slid out of the window [pos-w+1, pos], then
    // drop every back entry the new k-mer dominates (>= keeps the
    // newest of equal keys). Size stays <= w <= capacity, so the
    // circular indexing never wraps onto a live entry.
    while (dq_head < dq_tail && ring[dq_head & ring_mask].pos + wz <= pos) {
      ++dq_head;
    }
    while (dq_head < dq_tail && ring[(dq_tail - 1) & ring_mask].key >= key) {
      --dq_tail;
    }
    ring[dq_tail++ & ring_mask] = Entry{key, pos, use_rev};

    const std::size_t kmers_seen = pos + 1;
    if (kmers_seen < static_cast<std::size_t>(w)) continue;
    const Entry* best = &ring[dq_head & ring_mask];
    if (pos < emit_from) {
      // Warm-up window of a block-split extraction: seed the suppression
      // state exactly as the monolithic pass would have left it (after
      // any window, last_pos equals that window's pick) without emitting.
      last_pos = best->pos;
      continue;
    }
    if (best->pos != last_pos) {
      out.push_back(Minimizer{best->key, best->pos, best->reverse});
      last_pos = best->pos;
    }
  }
  if (out.capacity() != out_cap) ++scratch.grow_events_;
}

}  // namespace gx::mapper
