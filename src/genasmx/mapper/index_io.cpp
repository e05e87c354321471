#include "genasmx/mapper/index_io.hpp"

#include <cstring>
#include <fstream>
#include <limits>
#include <utility>
#include <vector>

namespace gx::mapper {
namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::size_t align64(std::size_t off) {
  return (off + kIndexSectionAlign - 1) & ~(kIndexSectionAlign - 1);
}

/// The section layout is a pure function of the sizes, shared by the
/// writer and the loader's bounds check.
struct Layout {
  std::uint64_t contigs_off, kept_off, names_off, seq_off, keys_off,
      values_off, file_bytes;
};

Layout computeLayout(std::uint64_t n_contigs, std::uint64_t names_bytes,
                     std::uint64_t seq_bytes, std::uint64_t n_entries) {
  Layout l{};
  l.contigs_off = sizeof(IndexFileHeader);
  l.kept_off = align64(l.contigs_off + n_contigs * sizeof(IndexContigRecord));
  l.names_off = align64(l.kept_off + n_contigs * sizeof(std::uint64_t));
  l.seq_off = align64(l.names_off + names_bytes);
  l.keys_off = align64(l.seq_off + seq_bytes);
  l.values_off = align64(l.keys_off + n_entries * sizeof(std::uint64_t));
  l.file_bytes = l.values_off + n_entries * sizeof(std::uint64_t);
  return l;
}

/// Streams sections to disk while accumulating the payload hash, so the
/// writer never materializes a second copy of a genome-scale index.
class SectionWriter {
 public:
  SectionWriter(std::ofstream& out, const std::string& path)
      : out_(out), path_(path) {
    // Leave room for the header; it is finalized (with both hashes) and
    // written last.
    const std::vector<char> zeros(sizeof(IndexFileHeader), 0);
    put(zeros.data(), zeros.size());
  }

  void write(const void* data, std::size_t n) {
    hashBytes(data, n);
    put(data, n);
    pos_ += n;
  }

  void padTo(std::uint64_t off) {
    static constexpr char kZeros[kIndexSectionAlign] = {};
    while (pos_ < off) {
      const std::size_t n =
          std::min<std::uint64_t>(off - pos_, sizeof(kZeros));
      write(kZeros, n);
    }
  }

  [[nodiscard]] std::uint64_t payloadHash() const noexcept { return hash_; }
  [[nodiscard]] std::uint64_t pos() const noexcept { return pos_; }

 private:
  void put(const void* data, std::size_t n) {
    if (!out_.write(static_cast<const char*>(data),
                    static_cast<std::streamsize>(n))) {
      throw IndexIoError("writeIndexFile: write to '" + path_ +
                             "' failed (disk full or permissions?)",
                         common::ErrorCode::kIoFatal);
    }
  }

  void hashBytes(const void* data, std::size_t n) {
    // Word-at-a-time FNV-1a. Sections are not individually 8-aligned in
    // the stream order (names/seq have arbitrary sizes), so carry a
    // partial word across write() calls.
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      word_ |= static_cast<std::uint64_t>(p[i]) << (8 * word_fill_);
      if (++word_fill_ == 8) {
        hash_ = (hash_ ^ word_) * kFnvPrime;
        word_ = 0;
        word_fill_ = 0;
      }
    }
  }

  std::ofstream& out_;
  const std::string& path_;
  std::uint64_t pos_ = sizeof(IndexFileHeader);
  std::uint64_t hash_ = 1469598103934665603ULL;
  std::uint64_t word_ = 0;
  unsigned word_fill_ = 0;
};

std::uint64_t headerHash(IndexFileHeader h) {
  h.payload_hash = 0;
  h.header_hash = 0;
  return indexFileHash(&h, sizeof(h));
}

[[noreturn]] void reject(const std::string& path, const std::string& why) {
  throw IndexIoError("MappedIndex: '" + path + "': " + why);
}

}  // namespace

std::uint64_t indexFileHash(const void* data, std::size_t n,
                            std::uint64_t seed) {
  std::uint64_t h = seed;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t word = 0;
  for (std::size_t i = 0; i + 8 <= n; i += 8) {
    std::memcpy(&word, p + i, 8);
    h = (h ^ word) * kFnvPrime;
  }
  return h;
}

void writeIndexFile(const std::string& path, const MinimizerIndex& index,
                    const refmodel::Reference& ref) {
  if (ref.empty()) {
    throw IndexIoError("writeIndexFile: empty reference");
  }
  if (index.perContigKept().size() != ref.contigCount()) {
    throw IndexIoError(
        "writeIndexFile: index and reference disagree on contig count (" +
        std::to_string(index.perContigKept().size()) + " vs " +
        std::to_string(ref.contigCount()) +
        ") — was the index built over this reference?");
  }

  std::uint64_t names_bytes = 0;
  for (const auto& c : ref.contigs()) names_bytes += c.name.size();
  const Layout l = computeLayout(ref.contigCount(), names_bytes,
                                 ref.size(), index.size());

  IndexFileHeader h{};
  std::memcpy(h.magic, kIndexMagic, sizeof(h.magic));
  h.version = kIndexFormatVersion;
  h.endian = kIndexEndianMarker;
  h.k = static_cast<std::uint32_t>(index.k());
  h.w = static_cast<std::uint32_t>(index.w());
  h.max_occ = static_cast<std::uint32_t>(index.maxOcc());
  h.n_entries = index.size();
  h.n_contigs = ref.contigCount();
  h.kept_off = l.kept_off;
  h.names_off = l.names_off;
  h.names_bytes = names_bytes;
  h.seq_off = l.seq_off;
  h.seq_bytes = ref.size();
  h.keys_off = l.keys_off;
  h.values_off = l.values_off;
  h.file_bytes = l.file_bytes;

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw IndexIoError("writeIndexFile: cannot open '" + path +
                           "' for writing",
                       common::ErrorCode::kIoFatal);
  }
  SectionWriter w(out, path);

  std::uint64_t name_off = 0;
  for (const auto& c : ref.contigs()) {
    IndexContigRecord rec{};
    rec.name_off = name_off;
    rec.name_len = c.name.size();
    rec.seq_off = c.offset;
    rec.seq_len = c.length;
    w.write(&rec, sizeof(rec));
    name_off += c.name.size();
  }
  w.padTo(l.kept_off);
  w.write(index.perContigKept().data(),
          index.perContigKept().size() * sizeof(std::uint64_t));
  w.padTo(l.names_off);
  for (const auto& c : ref.contigs()) w.write(c.name.data(), c.name.size());
  w.padTo(l.seq_off);
  w.write(ref.view().data(), ref.view().size());
  w.padTo(l.keys_off);
  w.write(index.keys().data(), index.keys().size() * sizeof(std::uint64_t));
  w.padTo(l.values_off);
  w.write(index.values().data(),
          index.values().size() * sizeof(std::uint64_t));

  if (w.pos() != l.file_bytes) {
    throw IndexIoError("writeIndexFile: internal layout mismatch",
                       common::ErrorCode::kInternal);
  }
  h.payload_hash = w.payloadHash();
  h.header_hash = headerHash(h);
  out.seekp(0);
  if (!out.write(reinterpret_cast<const char*>(&h), sizeof(h)) ||
      !out.flush()) {
    throw IndexIoError("writeIndexFile: finalizing '" + path + "' failed",
                       common::ErrorCode::kIoFatal);
  }
}

MappedIndex::MappedIndex(const std::string& path, Options opt)
    : MappedIndex(io::MappedFile::open(path), opt, path) {}

MappedIndex::MappedIndex(io::MappedFile file, Options opt, std::string name)
    : file_(std::move(file)) {
  const std::string& path = name;
  if (file_.size() < sizeof(IndexFileHeader)) {
    reject(path, "truncated: " + std::to_string(file_.size()) +
                     " bytes is smaller than the " +
                     std::to_string(sizeof(IndexFileHeader)) +
                     "-byte header — rebuild with genasmx_index");
  }
  IndexFileHeader h{};
  std::memcpy(&h, file_.data(), sizeof(h));
  if (std::memcmp(h.magic, kIndexMagic, sizeof(h.magic)) != 0) {
    reject(path,
           "not a genasmx minimizer index (bad magic) — build one with "
           "genasmx_index");
  }
  if (h.endian != kIndexEndianMarker) {
    reject(path,
           "endianness mismatch: the index was written on a host with "
           "different byte order — rebuild with genasmx_index on this host");
  }
  if (h.version != kIndexFormatVersion) {
    reject(path, "unsupported format version " + std::to_string(h.version) +
                     " (this build reads version " +
                     std::to_string(kIndexFormatVersion) +
                     ") — rebuild with genasmx_index");
  }
  if (h.header_hash != headerHash(h)) {
    reject(path,
           "header checksum mismatch (corrupt file?) — rebuild with "
           "genasmx_index");
  }
  if (h.file_bytes != file_.size()) {
    reject(path, "declared size " + std::to_string(h.file_bytes) +
                     " does not match the file's " +
                     std::to_string(file_.size()) +
                     " bytes (truncated copy?) — rebuild with genasmx_index");
  }
  if (h.n_contigs == 0 || h.seq_bytes == 0 || h.k == 0 || h.w == 0 ||
      h.max_occ == 0) {
    reject(path, "degenerate header fields (corrupt file?) — rebuild with "
                 "genasmx_index");
  }
  // Section table sanity: the layout is a pure function of the sizes,
  // so a header that disagrees with it was not written by this code.
  const Layout l =
      computeLayout(h.n_contigs, h.names_bytes, h.seq_bytes, h.n_entries);
  if (h.kept_off != l.kept_off || h.names_off != l.names_off ||
      h.seq_off != l.seq_off || h.keys_off != l.keys_off ||
      h.values_off != l.values_off || h.file_bytes != l.file_bytes) {
    reject(path, "inconsistent section table (corrupt file?) — rebuild "
                 "with genasmx_index");
  }

  file_.adviseWillNeed();
  const char* base = reinterpret_cast<const char*>(file_.data());
  if (opt.verify_payload &&
      h.payload_hash != indexFileHash(base + sizeof(IndexFileHeader),
                                      h.file_bytes -
                                          sizeof(IndexFileHeader))) {
    reject(path,
           "payload checksum mismatch (corrupt file?) — rebuild with "
           "genasmx_index");
  }

  // Materialize the contig table (names are copied — they are tiny);
  // the sequence stays a view into the mapping.
  std::vector<refmodel::Contig> contigs;
  contigs.reserve(h.n_contigs);
  const auto* recs =
      reinterpret_cast<const IndexContigRecord*>(base + l.contigs_off);
  for (std::uint64_t c = 0; c < h.n_contigs; ++c) {
    const IndexContigRecord& rec = recs[c];
    if (rec.name_off + rec.name_len > h.names_bytes) {
      reject(path, "contig " + std::to_string(c) +
                       " name overruns the name pool (corrupt file?) — "
                       "rebuild with genasmx_index");
    }
    refmodel::Contig contig;
    contig.name.assign(base + h.names_off + rec.name_off, rec.name_len);
    contig.offset = rec.seq_off;
    contig.length = rec.seq_len;
    contigs.push_back(std::move(contig));
  }
  try {
    ref_ = refmodel::Reference::fromExternal(
        std::string_view(base + h.seq_off, h.seq_bytes), std::move(contigs));
  } catch (const std::invalid_argument& e) {
    reject(path, std::string("bad contig table: ") + e.what() +
                     " — rebuild with genasmx_index");
  }

  // Positions are 32-bit, so no reference this code indexes yields more
  // entries than the directory's 32-bit offsets can count.
  if (h.n_entries > std::numeric_limits<std::uint32_t>::max()) {
    reject(path, std::to_string(h.n_entries) +
                     " entries exceed the 32-bit position space (corrupt "
                     "file?) — rebuild with genasmx_index");
  }
  const auto* keys = reinterpret_cast<const std::uint64_t*>(base + h.keys_off);
  dir_ = KeyDirectory(keys, h.n_entries);
  view_ = IndexView(
      &ref_, keys, reinterpret_cast<const std::uint64_t*>(base + h.values_off),
      h.n_entries, dir_,
      reinterpret_cast<const std::uint64_t*>(base + h.kept_off),
      static_cast<int>(h.k), static_cast<int>(h.w),
      static_cast<int>(h.max_occ));
}

}  // namespace gx::mapper
