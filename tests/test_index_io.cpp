// On-disk minimizer index (index_io): build -> save -> mmap load
// round-trips on single- and multi-contig repeat-rich references, the
// IndexView query-parity contract between both index sources (the
// substrate of byte-identical PAF from `genasmx_map --index=`), and
// rejection of every malformed-file class — wrong magic, bumped
// version, endianness mismatch, truncation, corrupt payload, corrupt
// header — with IndexIoError, never a crash.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "genasmx/io/paf.hpp"
#include "genasmx/mapper/index.hpp"
#include "genasmx/mapper/index_io.hpp"
#include "genasmx/mapper/index_view.hpp"
#include "genasmx/mapper/mapper.hpp"
#include "genasmx/pipeline/pipeline.hpp"
#include "genasmx/readsim/genome.hpp"
#include "genasmx/readsim/read_simulator.hpp"
#include "genasmx/refmodel/reference.hpp"
#include "genasmx/util/prng.hpp"
#include "single_phase_reference.hpp"

namespace gx::mapper {
namespace {

refmodel::Reference repeatRichRef(std::size_t contigs, std::uint64_t seed) {
  refmodel::Reference ref;
  readsim::GenomeConfig cfg;
  cfg.repeat_fraction = 0.30;  // force capped (masked) minimizers
  cfg.repeat_unit = 800;
  cfg.repeat_divergence = 0.02;
  for (std::size_t c = 0; c < contigs; ++c) {
    cfg.length = 40'000 + 25'000 * c;
    cfg.seed = seed + c;
    ref.addContig("ctg" + std::to_string(c + 1),
                  readsim::generateGenome(cfg));
  }
  return ref;
}

std::string tempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void spill(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Every field the format stores, compared via the IndexView surfaces of
/// the in-memory build and the mapped file.
void expectSameIndex(const MinimizerIndex& built,
                     const refmodel::Reference& ref,
                     const MappedIndex& mapped) {
  const IndexView a = built.view(ref);
  const IndexView& b = mapped.view();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.k(), b.k());
  EXPECT_EQ(a.w(), b.w());
  EXPECT_EQ(a.maxOcc(), b.maxOcc());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.keysData()[i], b.keysData()[i]) << "key " << i;
    ASSERT_EQ(a.valuesData()[i], b.valuesData()[i]) << "value " << i;
  }
  const refmodel::Reference& rref = mapped.reference();
  ASSERT_EQ(ref.contigCount(), rref.contigCount());
  EXPECT_TRUE(rref.externallyBacked());
  EXPECT_EQ(ref.view(), rref.view());
  for (std::uint32_t c = 0; c < ref.contigCount(); ++c) {
    EXPECT_EQ(ref.name(c), rref.name(c));
    EXPECT_EQ(ref.contig(c).offset, rref.contig(c).offset);
    EXPECT_EQ(ref.contig(c).length, rref.contig(c).length);
    EXPECT_EQ(a.perContigKept(c), b.perContigKept(c));
  }
  EXPECT_EQ(a.distinctKeys(), b.distinctKeys());
}

TEST(IndexIo, RoundTripSingleContig) {
  const auto ref = repeatRichRef(1, 5);
  MinimizerIndex index;
  index.build(ref, 15, 10, 64);
  const std::string path = tempPath("single.gxi");
  writeIndexFile(path, index, ref);
  const MappedIndex mapped(path);
  expectSameIndex(index, ref, mapped);
}

TEST(IndexIo, RoundTripMultiContigRepeatRich) {
  const auto ref = repeatRichRef(4, 17);
  MinimizerIndex index;
  index.build(ref, 15, 10, 8);  // tight cap: repeats actually mask
  const std::string path = tempPath("multi.gxi");
  writeIndexFile(path, index, ref);
  const MappedIndex mapped(path);
  expectSameIndex(index, ref, mapped);
  // The masked-repeat accounting survives the round-trip: at least one
  // contig kept fewer minimizers than it extracted.
  std::uint64_t kept = 0;
  for (std::uint32_t c = 0; c < ref.contigCount(); ++c) {
    kept += mapped.view().perContigKept(c);
  }
  EXPECT_EQ(kept, mapped.view().size());
}

TEST(IndexIo, LookupParityBetweenSources) {
  const auto ref = repeatRichRef(3, 29);
  MinimizerIndex index;
  index.build(ref, 15, 10, 16);
  const std::string path = tempPath("parity.gxi");
  writeIndexFile(path, index, ref);
  const MappedIndex mapped(path);
  // Every stored key — including capped-adjacent ones — answers
  // identically from the sorted arrays and from the mmap'd file, plus a
  // probe of absent keys.
  const IndexView& disk = mapped.view();
  const IndexView memory = index.view(ref);
  for (std::size_t i = 0; i < index.size(); i += 97) {
    const std::uint64_t key = index.keys()[i];
    const auto a = memory.lookup(key);
    const auto b = disk.lookup(key);
    ASSERT_EQ(a.size(), b.size()) << "key " << key;
    for (std::size_t h = 0; h < a.size(); ++h) {
      EXPECT_EQ(a[h].pos, b[h].pos);
      EXPECT_EQ(a[h].reverse, b[h].reverse);
    }
  }
  EXPECT_TRUE(disk.lookup(~std::uint64_t(0)).empty());
}

/// The whole-array binary search lookup used before the directory:
/// the oracle every directory lookup must match, hit for hit and in
/// array offset (an empty answer included).
void expectLookupMatchesLowerBound(const IndexView& view, std::uint64_t key) {
  const std::uint64_t* keys = view.keysData();
  const auto [lo, hi] = std::equal_range(keys, keys + view.size(), key);
  const HitRange got = view.lookup(key);
  ASSERT_EQ(got.size(), static_cast<std::size_t>(hi - lo)) << "key " << key;
  ASSERT_EQ(got.offset(), static_cast<std::size_t>(lo - keys)) << "key " << key;
  std::size_t i = got.offset();
  for (const IndexHit hit : got) {
    EXPECT_EQ(hit.pos, view.valuesData()[i] >> 1) << "key " << key;
    EXPECT_EQ(hit.reverse, (view.valuesData()[i] & 1) != 0) << "key " << key;
    ++i;
  }
}

/// Every stored key, its neighbours, random keys (absent but for
/// astronomically rare collisions), the first and last key of every
/// directory bucket, 0 and ~0.
void expectDirectoryMatchesLowerBound(const IndexView& view) {
  for (std::size_t i = 0; i < view.size(); ++i) {
    const std::uint64_t key = view.keysData()[i];
    if (i > 0 && key == view.keysData()[i - 1]) continue;
    expectLookupMatchesLowerBound(view, key);
    expectLookupMatchesLowerBound(view, key - 1);
    expectLookupMatchesLowerBound(view, key + 1);
  }
  util::Xoshiro256 rng(view.size() + 1);
  for (int i = 0; i < 2'000; ++i) expectLookupMatchesLowerBound(view, rng());
  // The views' own directories are sized the same way from the keys.
  const unsigned bits = 64 - KeyDirectory(view.keysData(), view.size()).shift();
  ASSERT_GE(bits, 1u);
  ASSERT_LE(bits, 32u);
  for (std::uint64_t b = 0; b < (std::uint64_t{1} << bits); ++b) {
    const std::uint64_t first = b << (64 - bits);
    expectLookupMatchesLowerBound(view, first);
    expectLookupMatchesLowerBound(view, first - 1);  // last of bucket b-1
  }
  expectLookupMatchesLowerBound(view, 0);
  expectLookupMatchesLowerBound(view, ~std::uint64_t{0});
}

TEST(Index, DirectoryLookupMatchesLowerBound) {
  // Built and mmap'd sources: a repeat-rich multi-contig index with a
  // tight cap, the same reference with a loose cap (keys with many
  // hits), and indexes of 0, 1 and 2 entries (w = 1 over 14, 15 and 16
  // bases).
  constexpr std::size_t kAny = ~std::size_t{0};
  struct Case {
    refmodel::Reference ref;
    int w;
    int max_occ;
    std::size_t entries;
  };
  std::vector<Case> cases;
  cases.push_back({repeatRichRef(3, 29), 10, 16, kAny});
  cases.push_back({repeatRichRef(2, 31), 10, 100'000, kAny});
  const std::string bases = "ACGTTGCAAGCTTACG";
  for (std::size_t len = 14; len <= 16; ++len) {
    cases.push_back(
        {refmodel::Reference("tiny", bases.substr(0, len)), 1, 64, len - 14});
  }
  for (std::size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    MinimizerIndex index;
    index.build(cases[c].ref, 15, cases[c].w, cases[c].max_occ);
    if (cases[c].entries != kAny) {
      ASSERT_EQ(index.size(), cases[c].entries);
    }
    const std::string path = tempPath("directory.gxi");
    writeIndexFile(path, index, cases[c].ref);
    const MappedIndex mapped(path);
    expectDirectoryMatchesLowerBound(index.view(cases[c].ref));
    expectDirectoryMatchesLowerBound(mapped.view());
  }

  // Many distinct keys crowded into one bucket (with repeats), plus a
  // few elsewhere: a directory over a synthetic sorted key array.
  std::vector<std::uint64_t> keys = {1, 2, 2, ~std::uint64_t{0}};
  for (std::uint64_t i = 0; i < 3'000; ++i) {
    keys.push_back((std::uint64_t{5} << 60) + 3 * (i / 2));
  }
  std::sort(keys.begin(), keys.end());
  std::vector<std::uint64_t> values(keys.size());
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = 2 * i + (i & 1);
  const refmodel::Reference ref("r", "ACGT");
  const std::uint64_t kept = keys.size();
  const KeyDirectory dir(keys.data(), keys.size());
  EXPECT_EQ(dir.shift(), 64u - 8u);  // 3 004 / 16 -> 256 buckets
  const IndexView crowded(&ref, keys.data(), values.data(), keys.size(), dir,
                          &kept, 15, 10, 64);
  expectDirectoryMatchesLowerBound(crowded);
  EXPECT_EQ(crowded.lookup((std::uint64_t{5} << 60) + 3).size(), 2u);

  // A default view answers every lookup empty.
  EXPECT_TRUE(IndexView().lookup(0).empty());
  EXPECT_TRUE(IndexView().lookup(~std::uint64_t{0}).empty());
}

TEST(IndexIo, MapperEmitsSameCandidatesFromBothSources) {
  const auto ref = repeatRichRef(3, 41);
  auto rcfg = readsim::ReadSimConfig::pacbioClr(25, 1'500);
  rcfg.seed = 43;
  const auto reads = readsim::simulateReads(ref, rcfg);

  const std::string path = tempPath("mapper.gxi");
  {
    MinimizerIndex index;
    index.build(ref, 15, 10, 64);
    writeIndexFile(path, index, ref);
  }
  const Mapper built(ref);  // builds its own index with the same params
  const MappedIndex mapped(path);
  const Mapper served(mapped.view());
  EXPECT_EQ(served.config().k, built.config().k);
  EXPECT_EQ(served.config().w, built.config().w);

  for (const auto& r : reads) {
    const auto a = built.map(r.seq);
    const auto b = served.map(r.seq);
    ASSERT_EQ(a.size(), b.size()) << r.name;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].contig, b[i].contig) << r.name;
      EXPECT_EQ(a[i].ref_begin, b[i].ref_begin) << r.name;
      EXPECT_EQ(a[i].ref_end, b[i].ref_end) << r.name;
      EXPECT_EQ(a[i].reverse, b[i].reverse) << r.name;
      EXPECT_EQ(a[i].score, b[i].score) << r.name;
    }
  }
}

TEST(IndexIo, PipelinePafByteIdenticalFromBothSources) {
  const auto ref = repeatRichRef(3, 53);
  auto rcfg = readsim::ReadSimConfig::pacbioClr(20, 1'200);
  rcfg.seed = 59;
  const auto reads = readsim::simulateReads(ref, rcfg);
  std::ostringstream fq;
  std::vector<io::FastxRecord> fastx;
  for (const auto& r : reads) {
    io::FastxRecord rec;
    rec.name = r.name;
    rec.seq = r.seq;
    rec.qual.assign(r.seq.size(), 'I');
    fastx.push_back(std::move(rec));
  }
  io::writeFastx(fq, fastx);
  const std::string path = tempPath("pipeline.gxi");
  {
    MinimizerIndex index;
    index.build(ref, 15, 10, 64);
    writeIndexFile(path, index, ref);
  }

  auto run = [&](bool from_disk, std::size_t threads,
                 bool emit_secondary = true) {
    pipeline::PipelineConfig cfg;
    cfg.engine.threads = threads;
    cfg.batch_reads = 7;
    cfg.emit_secondary = emit_secondary;
    std::istringstream in(fq.str());
    std::ostringstream out;
    io::PafWriter writer(out);
    if (from_disk) {
      const MappedIndex mapped(path);
      pipeline::MappingPipeline pipe(mapped.view(), cfg);
      (void)pipe.run(in, writer);
    } else {
      pipeline::MappingPipeline pipe(ref, cfg);
      (void)pipe.run(in, writer);
    }
    return out.str();
  };

  const std::string memory1 = run(false, 1);
  ASSERT_FALSE(memory1.empty());
  EXPECT_EQ(memory1, run(true, 1));
  EXPECT_EQ(memory1, run(true, 8));

  // Primary-only from the file matches the single-phase reference flow
  // over the in-memory build.
  pipeline::PipelineConfig ref_cfg;
  ref_cfg.emit_secondary = false;
  pipeline::MappingPipeline ref_pipe(ref, ref_cfg);
  const std::string single =
      testref::pafText(testref::singlePhasePrimary(ref_pipe, fastx));
  ASSERT_FALSE(single.empty());
  EXPECT_EQ(single, run(true, 1, false));
  EXPECT_EQ(single, run(true, 8, false));
}

// ------------------------------------------------------------ rejection

struct Prepared {
  std::string path;
  std::string bytes;
};

Prepared preparedIndex(const std::string& name) {
  const auto ref = repeatRichRef(2, 71);
  MinimizerIndex index;
  index.build(ref, 15, 10, 64);
  Prepared p;
  p.path = tempPath(name);
  writeIndexFile(p.path, index, ref);
  p.bytes = slurp(p.path);
  return p;
}

void expectRejected(const std::string& path, const std::string& needle) {
  try {
    const MappedIndex mapped(path);
    FAIL() << "expected IndexIoError mentioning '" << needle << "'";
  } catch (const IndexIoError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(IndexIo, RejectsWrongMagic) {
  auto p = preparedIndex("magic.gxi");
  p.bytes[0] = 'X';
  spill(p.path, p.bytes);
  expectRejected(p.path, "not a genasmx minimizer index");
}

TEST(IndexIo, RejectsVersionBump) {
  auto p = preparedIndex("version.gxi");
  p.bytes[8] = static_cast<char>(kIndexFormatVersion + 1);  // version field
  spill(p.path, p.bytes);
  expectRejected(p.path, "unsupported format version");
}

TEST(IndexIo, RejectsForeignEndianness) {
  auto p = preparedIndex("endian.gxi");
  // Byte-swap the endianness marker, as a file written on an opposite-
  // endian host would present it.
  std::swap(p.bytes[12], p.bytes[15]);
  std::swap(p.bytes[13], p.bytes[14]);
  spill(p.path, p.bytes);
  expectRejected(p.path, "endianness");
}

TEST(IndexIo, RejectsTruncation) {
  auto p = preparedIndex("trunc.gxi");
  spill(p.path, p.bytes.substr(0, 64));  // shorter than the header
  expectRejected(p.path, "truncated");
  spill(p.path, p.bytes.substr(0, p.bytes.size() - 128));  // lost tail
  expectRejected(p.path, "does not match the file");
}

TEST(IndexIo, RejectsCorruptPayload) {
  auto p = preparedIndex("payload.gxi");
  p.bytes[p.bytes.size() / 2] ^= 0x20;  // one bit deep in a section
  spill(p.path, p.bytes);
  expectRejected(p.path, "payload checksum");
  // Opting out of payload verification accepts the file (the corruption
  // is invisible to the header) — the knob exists for lazy cold starts.
  MappedIndex::Options opt;
  opt.verify_payload = false;
  EXPECT_NO_THROW(MappedIndex(p.path, opt));
}

TEST(IndexIo, RejectsCorruptHeader) {
  auto p = preparedIndex("header.gxi");
  p.bytes[40] ^= 0x01;  // a section offset: header checksum must catch it
  spill(p.path, p.bytes);
  expectRejected(p.path, "checksum");
}

TEST(IndexIo, RejectsMissingFile) {
  EXPECT_THROW(MappedIndex(tempPath("does-not-exist.gxi")),
               std::runtime_error);
}

TEST(IndexIo, WriterRejectsForeignReference) {
  const auto ref = repeatRichRef(2, 83);
  const auto other = repeatRichRef(3, 89);
  MinimizerIndex index;
  index.build(ref, 15, 10, 64);
  EXPECT_THROW(writeIndexFile(tempPath("foreign.gxi"), index, other),
               IndexIoError);
}

// --------------------------------------------- external-backing model

TEST(Reference, FromExternalValidatesTiling) {
  const std::string backing = "ACGTACGTACGT";
  using refmodel::Contig;
  using refmodel::Reference;
  EXPECT_NO_THROW(Reference::fromExternal(
      backing, {Contig{"a", 0, 4}, Contig{"b", 4, 8}}));
  EXPECT_THROW(Reference::fromExternal(backing, {Contig{"a", 0, 4}}),
               std::invalid_argument);  // lengths don't cover the buffer
  EXPECT_THROW(Reference::fromExternal(
                   backing, {Contig{"a", 0, 4}, Contig{"b", 5, 7}}),
               std::invalid_argument);  // gap after contig a
  EXPECT_THROW(Reference::fromExternal(backing, {}),
               std::invalid_argument);
}

TEST(Reference, ExternalBackingIsImmutable) {
  const std::string backing = "ACGTACGT";
  auto ref = refmodel::Reference::fromExternal(
      backing, {refmodel::Contig{"a", 0, 8}});
  EXPECT_TRUE(ref.externallyBacked());
  EXPECT_EQ(ref.view(), backing);
  EXPECT_THROW(ref.addContig("b", "ACGT"), std::logic_error);
}

}  // namespace
}  // namespace gx::mapper
