#pragma once
// End-to-end candidate generation: minimizer seeding + chaining over a
// multi-contig reference, producing the (read, reference window) pairs
// the aligners consume. Substitutes "minimap2 with -P" in the paper's
// methodology (all chains kept, primary and secondary).
//
// Coordinate model: the index and the chaining DP run in the Reference's
// global coordinate space (one sorted anchor array, one index); emitted
// Candidates are contig-local — they carry a contig id plus [begin, end)
// offsets within that contig, and their windows are clamped to the
// contig's bounds so no candidate ever spans a contig boundary.
//
// Index source: the Mapper consumes an IndexView — it never asks where
// the sorted key/value arrays live. Build-and-own (the Reference/
// MapperConfig ctors construct a MinimizerIndex internally) and serve-
// from-disk (construct from MappedIndex::view()) run the same seeding
// code on the same arrays, which is what makes their PAF byte-identical.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "genasmx/mapper/chain.hpp"
#include "genasmx/mapper/index.hpp"
#include "genasmx/mapper/index_view.hpp"
#include "genasmx/mapper/minimizer.hpp"
#include "genasmx/refmodel/reference.hpp"

namespace gx::util {
class ThreadPool;
}

namespace gx::mapper {

struct MapperConfig {
  int k = 15;
  int w = 10;
  int max_occ = 64;       ///< minimizer occurrence cap (repeat masking)
  ChainParams chain{};    ///< chain.kmer is forced to k
  /// Reference slack added around each chain. Must stay *below* the
  /// aligner's window size: GenASM windowed alignment is start-anchored
  /// (candidates come from base-accurate chain starts, as in the original
  /// GenASM pipeline), and a junk flank of a full window would leave the
  /// first window with no signal to lock onto.
  std::size_t margin = 16;
};

struct Candidate {
  std::uint32_t contig = 0;   ///< contig id in the Reference
  std::size_t ref_begin = 0;  ///< candidate window [begin, end), contig-local
  std::size_t ref_end = 0;
  /// Chain's query span [begin, end) in *oriented-read* coordinates: for
  /// reverse candidates these index into reverseComplement(read), i.e.
  /// the query string the aligner actually consumes. PAF emission flips
  /// them back to forward-read coordinates.
  std::size_t read_begin = 0;
  std::size_t read_end = 0;
  bool reverse = false;  ///< read maps to the reverse strand
  double score = 0;
  int anchors = 0;
};

/// Reusable working state of Mapper::map: the minimizer ring and list,
/// the per-strand anchor and chain arrays, and the chaining DP arrays.
/// Keep one per seeding thread. Once warm, seeding a read allocates only
/// the minimizers and candidates the caller keeps, one exact-size block
/// each, and nothing when the caller reuses its output vectors.
struct SeedScratch {
  MinimizerScratch ring;
  std::vector<Minimizer> mins;
  std::vector<Anchor> fwd, rev;
  ChainScratch chain;
  std::vector<Chain> fwd_chains, rev_chains;
};

class Mapper {
 public:
  /// Index `ref` and own the result. A non-null `index_pool` parallelizes
  /// the index build per contig (result identical to the serial build).
  explicit Mapper(refmodel::Reference ref, MapperConfig cfg = {},
                  util::ThreadPool* index_pool = nullptr);

  /// Flat-genome convenience: one contig named "ref".
  explicit Mapper(std::string genome, MapperConfig cfg = {});

  /// Seed/chain against an externally owned index (e.g. a MappedIndex).
  /// The view's backing storage — and the Reference it points at — must
  /// outlive the Mapper. k, w and max_occ are taken from the view (they
  /// are properties of the index build, not free knobs); the rest of
  /// `cfg` (chaining, margin) applies as usual.
  explicit Mapper(IndexView view, MapperConfig cfg = {});

  [[nodiscard]] const refmodel::Reference& reference() const noexcept {
    return view_.reference();
  }
  /// The concatenated backing buffer (global coordinate space).
  [[nodiscard]] std::string_view genome() const noexcept {
    return reference().view();
  }
  [[nodiscard]] const MapperConfig& config() const noexcept { return cfg_; }
  /// The query surface of whatever index this Mapper seeds from.
  [[nodiscard]] const IndexView& index() const noexcept { return view_; }

  /// All candidate locations for `read`, best chain first, into `out`
  /// (cleared first). The read's minimizers land in `mins_out` (the one
  /// sequence scan seeding performs), so downstream stages — e.g. the
  /// sketch prefilter — reuse them instead of rescanning.
  void map(std::string_view read, SeedScratch& scratch,
           std::vector<Minimizer>& mins_out,
           std::vector<Candidate>& out) const;

  /// Allocating convenience over the scratch form.
  [[nodiscard]] std::vector<Candidate> map(std::string_view read) const;

  /// The reference text of a candidate window.
  [[nodiscard]] std::string_view candidateText(const Candidate& c) const {
    return reference().contigView(c.contig).substr(c.ref_begin,
                                                   c.ref_end - c.ref_begin);
  }

 private:
  /// Build-and-own storage. Behind a unique_ptr so the Mapper stays
  /// movable while view_'s pointers into it remain valid (the arrays
  /// don't move when the Mapper does).
  struct Owned {
    refmodel::Reference ref;
    MinimizerIndex index;
  };

  std::unique_ptr<const Owned> owned_;  ///< null when viewing external storage
  MapperConfig cfg_;
  IndexView view_;
};

/// A ready-to-align pair: reference window text plus the read oriented to
/// the mapping strand.
struct AlignmentPair {
  std::string target;  ///< reference window
  std::string query;   ///< read (reverse-complemented for minus strand)
};

/// Expand a read's candidates into alignment pairs (the benchmark unit).
[[nodiscard]] std::vector<AlignmentPair> buildAlignmentPairs(
    const Mapper& mapper, std::string_view read,
    std::size_t max_candidates = ~std::size_t(0));

}  // namespace gx::mapper
