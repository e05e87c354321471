#include "genasmx/mapper/index.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <utility>

#include "genasmx/mapper/minimizer.hpp"
#include "genasmx/util/thread_pool.hpp"

namespace gx::mapper {
namespace {

/// One (key, packed value) index entry. Entries are unique — extraction
/// dedups (key, pos) and global positions are contig-disjoint — so
/// sorting by the full pair is a total order and every merge schedule
/// (serial, parallel, any tree shape) yields the same array.
using Entry = std::pair<std::uint64_t, std::uint64_t>;

std::vector<Entry> extractShard(std::size_t offset, std::string_view text,
                                int k, int w, std::size_t emit_from) {
  const auto mins = extractMinimizers(text, k, w, emit_from);
  std::vector<Entry> entries;
  entries.reserve(mins.size());
  for (const Minimizer& m : mins) {
    const std::uint64_t global = static_cast<std::uint64_t>(offset) + m.pos;
    entries.emplace_back(m.key, (global << 1) | (m.reverse ? 1 : 0));
  }
  std::sort(entries.begin(), entries.end());
  return entries;
}

}  // namespace

KeyDirectory::KeyDirectory(const std::uint64_t* keys, std::size_t n) {
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("KeyDirectory: more than 2^32 - 1 entries");
  }
  const std::size_t buckets = std::max<std::size_t>(2, std::bit_ceil(n / 16));
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(buckets));
  // Count each bucket into offsets_[b + 1], then prefix-sum: offsets_[b]
  // becomes the number of keys in buckets before b.
  offsets_.assign(buckets + 1, 0);
  for (std::size_t i = 0; i < n; ++i) ++offsets_[(keys[i] >> shift_) + 1];
  for (std::size_t b = 1; b <= buckets; ++b) offsets_[b] += offsets_[b - 1];
}

void MinimizerIndex::build(const refmodel::Reference& ref, int k, int w,
                           int max_occ, util::ThreadPool* pool,
                           std::size_t block_bp) {
  std::vector<Shard> shards;
  shards.reserve(ref.contigCount());
  for (std::uint32_t c = 0; c < ref.contigCount(); ++c) {
    const std::size_t offset = ref.contig(c).offset;
    const std::string_view text = ref.contigView(c);
    if (block_bp == 0 || text.size() <= block_bp) {
      shards.push_back(Shard{c, offset, text, 0});
      continue;
    }
    // Large contig: overlapping extraction blocks. Block b owns the
    // windows whose last k-mer starts in [b*block, (b+1)*block); its
    // text additionally carries w warm-up characters on the left (one
    // warm-up window rebuilds the duplicate-suppression state, see
    // extractMinimizers) and k-1 overhang characters on the right (the
    // last owned k-mer's tail).
    const std::size_t warm = static_cast<std::size_t>(w);
    const std::size_t tail = static_cast<std::size_t>(k) - 1;
    for (std::size_t start = 0; start < text.size(); start += block_bp) {
      const std::size_t end = std::min(text.size(), start + block_bp);
      const std::size_t tstart = start >= warm ? start - warm : 0;
      const std::size_t tend = std::min(text.size(), end + tail);
      shards.push_back(Shard{c, offset + tstart,
                             text.substr(tstart, tend - tstart),
                             start - tstart});
    }
  }
  buildShards(shards, ref.contigCount(), k, w, max_occ, pool, &ref);
}

void MinimizerIndex::build(std::string_view genome, int k, int w,
                           int max_occ) {
  buildShards({Shard{0, 0, genome, 0}}, 1, k, w, max_occ, nullptr, nullptr);
}

void MinimizerIndex::buildShards(const std::vector<Shard>& shards,
                                 std::size_t contig_count, int k, int w,
                                 int max_occ, util::ThreadPool* pool,
                                 const refmodel::Reference* ref_for_stats) {
  k_ = k;
  w_ = w;
  max_occ_ = max_occ;
  keys_.clear();
  values_.clear();
  dir_ = KeyDirectory();
  per_contig_kept_.assign(contig_count > 0 ? contig_count : 1, 0);
  if (shards.empty()) return;

  // IndexHit (and the Anchor/Chain types downstream) hold positions in
  // 32 bits; a reference past 4 Gbp would wrap its coordinates silently,
  // so refuse it here — the one place every build path funnels through.
  const std::uint64_t total_bp =
      static_cast<std::uint64_t>(shards.back().offset) +
      shards.back().text.size();
  if (total_bp > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        "MinimizerIndex: reference exceeds the 32-bit position space "
        "(4 Gbp)");
  }

  // Stage 1 — per-shard extraction + sort (parallel over shards; large
  // contigs contribute several block shards, so even a single-chromosome
  // reference fans out here).
  std::vector<std::vector<Entry>> sorted(shards.size());
  const auto extract_range = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      sorted[i] = extractShard(shards[i].offset, shards[i].text, k, w,
                               shards[i].emit_from);
    }
  };
  if (pool != nullptr && shards.size() > 1) {
    pool->parallel_for(shards.size(), extract_range);
  } else {
    extract_range(0, shards.size());
  }
  // Per-contig stats start at the extraction counts; the cap pass below
  // subtracts dropped groups, so the common (kept) path never resolves a
  // position back to its contig.
  for (std::size_t i = 0; i < shards.size(); ++i) {
    per_contig_kept_[shards[i].contig] += sorted[i].size();
  }

  // Stage 2 — pairwise merge tree. Each round halves the shard count;
  // merges within a round are independent, so they fan out on the pool.
  while (sorted.size() > 1) {
    const std::size_t pairs = sorted.size() / 2;
    std::vector<std::vector<Entry>> next(pairs + sorted.size() % 2);
    const auto merge_range = [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        std::vector<Entry> merged;
        merged.resize(sorted[2 * i].size() + sorted[2 * i + 1].size());
        std::merge(sorted[2 * i].begin(), sorted[2 * i].end(),
                   sorted[2 * i + 1].begin(), sorted[2 * i + 1].end(),
                   merged.begin());
        next[i] = std::move(merged);
      }
    };
    if (pool != nullptr && pairs > 1) {
      pool->parallel_for(pairs, merge_range);
    } else {
      merge_range(0, pairs);
    }
    if (sorted.size() % 2 != 0) {
      next.back() = std::move(sorted.back());
    }
    sorted = std::move(next);
  }
  const std::vector<Entry>& merged = sorted.front();

  // Stage 3 — occurrence cap + emission (serial linear pass).
  keys_.reserve(merged.size());
  values_.reserve(merged.size());
  std::size_t i = 0;
  while (i < merged.size()) {
    std::size_t j = i;
    while (j < merged.size() && merged[j].first == merged[i].first) ++j;
    if (j - i <= static_cast<std::size_t>(max_occ)) {
      for (std::size_t t = i; t < j; ++t) {
        keys_.push_back(merged[t].first);
        values_.push_back(merged[t].second);
      }
    } else {
      // Capped out: charge the drop back to each entry's contig. Only
      // over-represented (repeat) keys pay the O(log C) resolution.
      for (std::size_t t = i; t < j; ++t) {
        const std::size_t pos = static_cast<std::size_t>(merged[t].second >> 1);
        const std::size_t c =
            ref_for_stats != nullptr ? ref_for_stats->contigOf(pos) : 0;
        --per_contig_kept_[c];
      }
    }
    i = j;
  }
  dir_ = KeyDirectory(keys_.data(), keys_.size());
}

std::size_t MinimizerIndex::distinctKeys() const noexcept {
  std::size_t n = 0;
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    n += i == 0 || keys_[i] != keys_[i - 1];
  }
  return n;
}

IndexView MinimizerIndex::view(const refmodel::Reference& ref) const {
  return IndexView(&ref, keys_.data(), values_.data(), keys_.size(), dir_,
                   per_contig_kept_.data(), k_, w_, max_occ_);
}

}  // namespace gx::mapper
