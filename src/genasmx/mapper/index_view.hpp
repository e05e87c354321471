#pragma once
// IndexView — the non-owning query surface of a minimizer index. The
// mapper, chainer, and pipeline consume this instead of MinimizerIndex
// directly, so they are agnostic to where the index lives: a freshly
// built MinimizerIndex (MinimizerIndex::view()) and a mmap'd index file
// (MappedIndex::view()) present the identical surface, and because both
// expose the very same sorted key/value arrays, the two paths are
// byte-identical all the way to PAF output.
//
// Lookup goes through a KeyDirectory: bucket offsets indexed by the top
// bits of the key. Keys are splitmix64 hashes, so the top bits are
// uniform and a bucket holds 8-16 entries on average; a lookup reads one
// directory word and binary-searches one bucket (one or two cache lines
// of keys) instead of the whole array. The directory is derived from the
// keys by whoever owns them, never serialized: the file format is the
// sorted arrays alone.
//
// An IndexView is a handful of pointers — copy it freely, but the owner
// (the MinimizerIndex + Reference, or the MappedIndex) must outlive
// every copy.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "genasmx/refmodel/reference.hpp"

namespace gx::mapper {

/// One reference hit of a minimizer, decoded from the packed index
/// value (position << 1 | strand).
struct IndexHit {
  std::uint32_t pos;  ///< global (contig-table) coordinate
  bool reverse;
};

/// Bucket directory over a key array: bucket b covers the entries whose
/// key has top bits b, and offsets()[b] .. offsets()[b + 1] is their
/// range. Sized to about n/16 buckets, rounded up to a power of two (at
/// least 2), so it costs at most n/2 bytes next to the 16n of the keys
/// and values.
///
/// Built by one count-then-prefix-sum pass, which is memory-safe for any
/// key order: the offsets are monotone and end at n, so every bucket
/// range lies within [0, n) even over unsorted keys (a corrupt file
/// loaded without payload verification); lookups there merely miss.
class KeyDirectory {
 public:
  /// The directory of an empty key array.
  KeyDirectory() : KeyDirectory(nullptr, 0) {}

  /// Throws std::length_error past 2^32 - 1 entries (offsets are 32-bit;
  /// a 4 Gbp reference cannot produce more).
  KeyDirectory(const std::uint64_t* keys, std::size_t n);

  /// Bucket count + 1 offsets; bucket b is [offsets()[b], offsets()[b+1]).
  [[nodiscard]] const std::uint32_t* offsets() const noexcept {
    return offsets_.data();
  }
  /// A key's bucket is key >> shift() (64 - log2 of the bucket count).
  [[nodiscard]] unsigned shift() const noexcept { return shift_; }

 private:
  std::vector<std::uint32_t> offsets_;
  unsigned shift_ = 63;
};

/// The hits of one key: a window of the sorted value array, decoded to
/// IndexHit on access. Allocates nothing; valid while the index is.
class HitRange {
 public:
  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = IndexHit;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = IndexHit;

    iterator() = default;
    explicit iterator(const std::uint64_t* v) : v_(v) {}
    IndexHit operator*() const { return decode(*v_); }
    iterator& operator++() {
      ++v_;
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++v_;
      return old;
    }
    bool operator==(const iterator&) const = default;

   private:
    const std::uint64_t* v_ = nullptr;
  };

  HitRange() = default;
  HitRange(const std::uint64_t* values, std::size_t first, std::size_t last)
      : values_(values), first_(first), last_(last) {}

  [[nodiscard]] iterator begin() const { return iterator(values_ + first_); }
  [[nodiscard]] iterator end() const { return iterator(values_ + last_); }
  [[nodiscard]] std::size_t size() const noexcept { return last_ - first_; }
  [[nodiscard]] bool empty() const noexcept { return last_ == first_; }
  [[nodiscard]] IndexHit operator[](std::size_t i) const {
    return decode(values_[first_ + i]);
  }
  /// Index of the first hit in the sorted key/value arrays.
  [[nodiscard]] std::size_t offset() const noexcept { return first_; }

 private:
  static IndexHit decode(std::uint64_t v) {
    return IndexHit{static_cast<std::uint32_t>(v >> 1), (v & 1) != 0};
  }

  const std::uint64_t* values_ = nullptr;
  std::size_t first_ = 0;
  std::size_t last_ = 0;
};

class IndexView {
 public:
  IndexView() = default;

  /// Wrap raw index sections. `keys`/`values` are the sorted arrays
  /// (length `n`), `dir` is the KeyDirectory over `keys`,
  /// `per_contig_kept` is index-aligned with `ref`'s contig table.
  /// Everything is borrowed.
  IndexView(const refmodel::Reference* ref, const std::uint64_t* keys,
            const std::uint64_t* values, std::size_t n,
            const KeyDirectory& dir, const std::uint64_t* per_contig_kept,
            int k, int w, int max_occ)
      : ref_(ref),
        keys_(keys),
        values_(values),
        n_(n),
        dir_(dir.offsets()),
        dir_shift_(dir.shift()),
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
  [[nodiscard]] HitRange lookup(std::uint64_t key) const {
    const std::size_t b = static_cast<std::size_t>(key >> dir_shift_);
    const std::uint64_t* const bucket_end = keys_ + dir_[b + 1];
    const std::uint64_t* const first =
        std::lower_bound(keys_ + dir_[b], bucket_end, key);
    const std::uint64_t* last = first;
    while (last != bucket_end && *last == key) ++last;
    return HitRange(values_, static_cast<std::size_t>(first - keys_),
                    static_cast<std::size_t>(last - keys_));
  }

 private:
  const refmodel::Reference* ref_ = nullptr;
  const std::uint64_t* keys_ = nullptr;
  const std::uint64_t* values_ = nullptr;
  std::size_t n_ = 0;
  /// A default view answers every lookup from an empty two-bucket
  /// directory.
  static constexpr std::uint32_t kNoEntries[3] = {0, 0, 0};
  const std::uint32_t* dir_ = kNoEntries;
  unsigned dir_shift_ = 63;
  const std::uint64_t* per_contig_kept_ = nullptr;
  int k_ = 0;
  int w_ = 0;
  int max_occ_ = 0;
};

}  // namespace gx::mapper
