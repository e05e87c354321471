#pragma once
// IndexView — the non-owning query surface of a minimizer index. The
// mapper, chainer, and pipeline consume this instead of MinimizerIndex
// directly, so they are agnostic to where the index lives: a freshly
// built MinimizerIndex (MinimizerIndex::view()) and a mmap'd index file
// (MappedIndex::view()) present the identical surface, and because both
// expose the very same sorted key/value arrays, the two paths are
// byte-identical all the way to PAF output.
//
// An IndexView is a handful of pointers — copy it freely, but the owner
// (the MinimizerIndex + Reference, or the MappedIndex) must outlive
// every copy.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "genasmx/mapper/index.hpp"
#include "genasmx/refmodel/reference.hpp"

namespace gx::mapper {

class IndexView {
 public:
  IndexView() = default;

  /// Wrap raw index sections. `keys`/`values` are the sorted arrays
  /// (length `n`), `per_contig_kept` is index-aligned with `ref`'s
  /// contig table. All pointers are borrowed.
  IndexView(const refmodel::Reference* ref, const std::uint64_t* keys,
            const std::uint64_t* values, std::size_t n,
            const std::uint64_t* per_contig_kept, int k, int w, int max_occ)
      : ref_(ref),
        keys_(keys),
        values_(values),
        n_(n),
        per_contig_kept_(per_contig_kept),
        k_(k),
        w_(w),
        max_occ_(max_occ) {}

  [[nodiscard]] bool valid() const noexcept { return ref_ != nullptr; }
  [[nodiscard]] int k() const noexcept { return k_; }
  [[nodiscard]] int w() const noexcept { return w_; }
  [[nodiscard]] int maxOcc() const noexcept { return max_occ_; }
  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }

  /// The contig table + sequence the index was built over.
  [[nodiscard]] const refmodel::Reference& reference() const noexcept {
    return *ref_;
  }

  /// Kept (post-cap) minimizers of one contig.
  [[nodiscard]] std::uint64_t perContigKept(std::uint32_t contig) const {
    return per_contig_kept_[contig];
  }

  /// Raw sorted sections, for serialization and equality checks.
  [[nodiscard]] const std::uint64_t* keysData() const noexcept {
    return keys_;
  }
  [[nodiscard]] const std::uint64_t* valuesData() const noexcept {
    return values_;
  }
  [[nodiscard]] const std::uint64_t* perContigKeptData() const noexcept {
    return per_contig_kept_;
  }

  [[nodiscard]] std::size_t distinctKeys() const noexcept {
    std::size_t n = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      n += i == 0 || keys_[i] != keys_[i - 1];
    }
    return n;
  }

  /// All reference hits of `key` (empty if unknown or masked), in
  /// ascending global position order. The one lookup: every index
  /// source (in-memory build or mapped file) answers through a view.
  [[nodiscard]] std::vector<IndexHit> lookup(std::uint64_t key) const {
    std::size_t lo = 0, hi = n_;
    while (lo < hi) {  // lower_bound over the sorted key array
      const std::size_t mid = lo + (hi - lo) / 2;
      if (keys_[mid] < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    std::size_t end = lo;
    while (end < n_ && keys_[end] == key) ++end;
    std::vector<IndexHit> hits;
    hits.reserve(end - lo);
    for (std::size_t i = lo; i < end; ++i) {
      hits.push_back(IndexHit{static_cast<std::uint32_t>(values_[i] >> 1),
                              (values_[i] & 1) != 0});
    }
    return hits;
  }

 private:
  const refmodel::Reference* ref_ = nullptr;
  const std::uint64_t* keys_ = nullptr;
  const std::uint64_t* values_ = nullptr;
  std::size_t n_ = 0;
  const std::uint64_t* per_contig_kept_ = nullptr;
  int k_ = 0;
  int w_ = 0;
  int max_occ_ = 0;
};

}  // namespace gx::mapper
