#pragma once
// Sorted-array minimizer index over a multi-contig reference (minimap2-
// style): build once, then query through view(), whose
// IndexView::lookup returns all reference positions of a minimizer the
// same way for a mapped index file. Lookups go through a KeyDirectory
// (index_view.hpp) of about n/16 bucket offsets, derived from the keys
// after every build and never serialized. Positions are global
// (contig-table) coordinates; extraction runs per contig so no seed ever
// spans a contig boundary. Over-represented minimizers (repeats) are
// masked with an occurrence cap, like minimap2's -f filtering.
//
// Build is shard-then-merge: each contig's minimizers are extracted and
// sorted as an independent shard, then shards are pairwise-merged and
// the occurrence cap applied in one final pass. Handing a ThreadPool to
// build() fans the shard and merge stages out across workers; the
// algorithm is identical either way, so the parallel build produces a
// bit-identical index to the serial one (asserted by tests).

#include <cstdint>
#include <string_view>
#include <vector>

#include "genasmx/mapper/index_view.hpp"
#include "genasmx/refmodel/reference.hpp"

namespace gx::util {
class ThreadPool;
}

namespace gx::mapper {

/// Extraction block size for large contigs: contigs longer than this are
/// split into overlapping blocks so a single-chromosome reference still
/// fans its index build out across workers. Block extraction is
/// bit-identical to monolithic extraction (see extractMinimizers'
/// emit_from contract), so the block size is a pure scheduling knob.
inline constexpr std::size_t kIndexBlockBp = 1u << 18;

class MinimizerIndex {
 public:
  MinimizerIndex() = default;

  /// Build over `ref` with minimizer parameters (k, w). Each contig is
  /// extracted as one shard — or, past `block_bp` characters, as several
  /// overlapping blocks with warm-up windows, so large contigs
  /// parallelize too. Minimizers occurring more than max_occ times are
  /// dropped. A non-null `pool` parallelizes shard extraction/sort and
  /// the merge tree. Neither the pool nor the block size changes the
  /// result: every schedule yields a bit-identical index (asserted by
  /// tests and the tracked bench). Throws std::invalid_argument for a
  /// reference past 4 Gbp (positions are stored in 32 bits throughout
  /// the mapper stack).
  void build(const refmodel::Reference& ref, int k, int w, int max_occ,
             util::ThreadPool* pool = nullptr,
             std::size_t block_bp = kIndexBlockBp);

  /// Flat-genome convenience: one anonymous contig, serial build.
  void build(std::string_view genome, int k, int w, int max_occ);

  [[nodiscard]] int k() const noexcept { return k_; }
  [[nodiscard]] int w() const noexcept { return w_; }
  [[nodiscard]] int maxOcc() const noexcept { return max_occ_; }
  [[nodiscard]] std::size_t size() const noexcept { return keys_.size(); }
  [[nodiscard]] std::size_t distinctKeys() const noexcept;

  /// Kept (post-cap) minimizers per contig, index-aligned with the
  /// Reference's contig table. One entry for the flat-genome build.
  /// uint64 rather than size_t: these counts are serialized verbatim
  /// into the on-disk contig table (see index_io.hpp).
  [[nodiscard]] const std::vector<std::uint64_t>& perContigKept()
      const noexcept {
    return per_contig_kept_;
  }

  /// The raw sorted sections, shared with IndexView and the on-disk
  /// writer.
  [[nodiscard]] const std::vector<std::uint64_t>& keys() const noexcept {
    return keys_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& values() const noexcept {
    return values_;
  }

  /// The non-owning query surface over this index and the reference it
  /// was built from. `ref` and this index must outlive the view.
  [[nodiscard]] IndexView view(const refmodel::Reference& ref) const;

  /// Bit-identical comparison over the full sorted arrays — the build-
  /// determinism contract (parallel == serial) is asserted with this.
  friend bool operator==(const MinimizerIndex& a,
                         const MinimizerIndex& b) noexcept {
    return a.k_ == b.k_ && a.w_ == b.w_ && a.max_occ_ == b.max_occ_ &&
           a.keys_ == b.keys_ && a.values_ == b.values_ &&
           a.per_contig_kept_ == b.per_contig_kept_;
  }

 private:
  struct Shard {
    std::uint32_t contig;   ///< owning contig (per-contig stats)
    std::size_t offset;     ///< global coordinate of the shard text start
    std::string_view text;  ///< block text, including warm-up overlap
    std::size_t emit_from;  ///< first owned window, text-relative
  };
  void buildShards(const std::vector<Shard>& shards, std::size_t contig_count,
                   int k, int w, int max_occ, util::ThreadPool* pool,
                   const refmodel::Reference* ref_for_stats);

  int k_ = 0;
  int w_ = 0;
  int max_occ_ = 0;
  std::vector<std::uint64_t> keys_;    ///< sorted
  std::vector<std::uint64_t> values_;  ///< pos << 1 | strand, same order
  std::vector<std::uint64_t> per_contig_kept_;
  KeyDirectory dir_;  ///< derived from keys_ at the end of every build
};

}  // namespace gx::mapper
