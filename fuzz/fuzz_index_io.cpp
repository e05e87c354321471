// libFuzzer harness for the on-disk index loader: arbitrary bytes fed
// through MappedFile::fromBytes into the exact MappedIndex validation
// path that production mmap opens use. Every rejection must be a
// structured IndexIoError (a common::Error) — no crash, no OOB read
// (run under ASan), no acceptance of bytes that then fault in view() or
// in a lookup through the derived key directory. Build with
// -DGENASMX_FUZZ=ON.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "genasmx/common/error.hpp"
#include "genasmx/io/mmap_file.hpp"
#include "genasmx/mapper/index_io.hpp"
#include "genasmx/refmodel/reference.hpp"

namespace {

/// Prints the check that failed and the probed key, then aborts.
[[noreturn]] void fail(const char* what, std::uint64_t key) {
  std::fprintf(stderr, "fuzz_index_io: %s (key %016llx)\n", what,
               static_cast<unsigned long long>(key));
  std::abort();
}

/// Probe `view.lookup(key)`: every hit must lie in [0, n) and carry the
/// probed key, whatever the keys section holds.
void probe(const gx::mapper::IndexView& view, std::uint64_t key) {
  const gx::mapper::HitRange hits = view.lookup(key);
  if (hits.offset() + hits.size() > view.size()) {
    fail("lookup range leaves [0, n)", key);
  }
  for (std::size_t i = 0; i < hits.size(); ++i) {
    if (view.keysData()[hits.offset() + i] != key) {
      fail("lookup returned a hit of another key", key);
    }
    (void)hits[i];
  }
}

/// Serve an accepted image the way the mapper would: the contig table,
/// then lookups of up to 1,024 stored keys (each must be found when the
/// keys are sorted) and of 64 keys taken from the input bytes.
void serve(const gx::mapper::MappedIndex& idx, const std::uint8_t* data,
           std::size_t size) {
  const gx::mapper::IndexView& view = idx.view();
  const gx::refmodel::Reference& ref = view.reference();
  for (std::uint32_t c = 0; c < ref.contigCount(); ++c) {
    (void)ref.contig(c).name;
    (void)view.perContigKept(c);
  }
  const std::uint64_t* keys = view.keysData();
  const bool sorted = std::is_sorted(keys, keys + view.size());
  const std::size_t step = view.size() / 1'024 + 1;
  for (std::size_t i = 0; i < view.size(); i += step) {
    probe(view, keys[i]);
    if (sorted && view.lookup(keys[i]).empty()) {
      fail("stored key not found in sorted keys", keys[i]);
    }
  }
  for (std::size_t i = 0; i < 64 && (i + 1) * 8 <= size; ++i) {
    std::uint64_t key = 0;
    std::memcpy(&key, data + i * 8, 8);
    probe(view, key);
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  // Once as a verified open, once as `--no-verify` would open it: then a
  // mutated keys section is served, and the lookup directory must stay
  // in bounds over unsorted keys.
  for (const bool verify : {true, false}) {
    std::vector<std::byte> bytes(size);
    if (size != 0) std::memcpy(bytes.data(), data, size);
    try {
      const gx::mapper::MappedIndex idx(
          gx::io::MappedFile::fromBytes(std::move(bytes)),
          gx::mapper::MappedIndexOptions{verify}, "fuzz");
      serve(idx, data, size);
    } catch (const gx::common::Error&) {
      // expected: malformed images are rejected with a structured error
    }
  }
  return 0;
}
