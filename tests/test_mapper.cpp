#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "genasmx/common/sequence.hpp"
#include "genasmx/mapper/chain.hpp"
#include "genasmx/mapper/index.hpp"
#include "genasmx/mapper/mapper.hpp"
#include "genasmx/mapper/minimizer.hpp"
#include "genasmx/readsim/genome.hpp"
#include "genasmx/readsim/read_simulator.hpp"
#include "genasmx/refmodel/reference.hpp"
#include "genasmx/util/prng.hpp"
#include "genasmx/util/thread_pool.hpp"

namespace gx::mapper {
namespace {

std::string testGenome(std::size_t len = 300'000, std::uint64_t seed = 11) {
  readsim::GenomeConfig cfg;
  cfg.length = len;
  cfg.seed = seed;
  cfg.repeat_fraction = 0.05;
  return readsim::generateGenome(cfg);
}

// -------------------------------------------------------------- minimizers

TEST(Minimizer, BasicProperties) {
  util::Xoshiro256 rng(1);
  const auto seq = common::randomSequence(rng, 10'000);
  const auto mins = extractMinimizers(seq, 15, 10);
  ASSERT_FALSE(mins.empty());
  // Density: roughly 2/(w+1) of positions.
  const double density =
      static_cast<double>(mins.size()) / static_cast<double>(seq.size());
  EXPECT_GT(density, 0.10);
  EXPECT_LT(density, 0.30);
  // Positions strictly increasing, in range.
  for (std::size_t i = 1; i < mins.size(); ++i) {
    EXPECT_LT(mins[i - 1].pos, mins[i].pos);
  }
  EXPECT_LE(mins.back().pos + 15, seq.size());
}

TEST(Minimizer, DeterministicAndSubstringConsistent) {
  util::Xoshiro256 rng(2);
  const auto seq = common::randomSequence(rng, 5'000);
  const auto a = extractMinimizers(seq, 15, 10);
  const auto b = extractMinimizers(seq, 15, 10);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].pos, b[i].pos);
  }
}

TEST(Minimizer, StrandSymmetry) {
  // Canonical k-mers: a sequence and its reverse complement share keys.
  util::Xoshiro256 rng(3);
  const auto seq = common::randomSequence(rng, 2'000);
  const auto rc = common::reverseComplement(seq);
  auto keys_f = extractMinimizers(seq, 15, 10);
  auto keys_r = extractMinimizers(rc, 15, 10);
  std::vector<std::uint64_t> kf, kr;
  for (const auto& m : keys_f) kf.push_back(m.key);
  for (const auto& m : keys_r) kr.push_back(m.key);
  std::sort(kf.begin(), kf.end());
  std::sort(kr.begin(), kr.end());
  // The two sets are (near-)identical: window boundaries can differ
  // slightly at the ends, but the overwhelming majority must agree.
  std::vector<std::uint64_t> common_keys;
  std::set_intersection(kf.begin(), kf.end(), kr.begin(), kr.end(),
                        std::back_inserter(common_keys));
  EXPECT_GT(common_keys.size() * 10, kf.size() * 9);
}

TEST(Minimizer, ShortSequenceAndValidation) {
  EXPECT_TRUE(extractMinimizers("ACGT", 15, 10).empty());
  EXPECT_THROW(extractMinimizers("ACGT", 2, 10), std::invalid_argument);
  EXPECT_THROW(extractMinimizers("ACGT", 40, 10), std::invalid_argument);
  EXPECT_THROW(extractMinimizers("ACGT", 15, 0), std::invalid_argument);
}

/// The minimizer definition the deque ring must reproduce, by an O(w)
/// rescan of every full window: minimum key, newest position on ties;
/// consecutive duplicate picks are emitted once, and windows whose last
/// k-mer starts before `emit_from` only seed that suppression state.
std::vector<Minimizer> rescanMinimizers(std::string_view seq, int k, int w,
                                        std::size_t emit_from) {
  std::vector<Minimizer> out;
  const auto ku = static_cast<std::size_t>(k);
  const auto wu = static_cast<std::size_t>(w);
  if (seq.size() < ku) return out;
  std::vector<Minimizer> kmers(seq.size() - ku + 1);
  for (std::size_t p = 0; p < kmers.size(); ++p) {
    std::uint64_t fwd = 0, rev = 0;
    for (std::size_t j = 0; j < ku; ++j) {
      const std::uint64_t c = common::baseCode(seq[p + j]);
      fwd = (fwd << 2) | c;
      rev |= (3 ^ c) << (2 * j);
    }
    kmers[p] = Minimizer{hash64(rev < fwd ? rev : fwd),
                         static_cast<std::uint32_t>(p), rev < fwd};
  }
  std::uint32_t last = ~0u;
  for (std::size_t p = wu - 1; p < kmers.size(); ++p) {
    std::size_t best = p + 1 - wu;
    for (std::size_t q = best; q <= p; ++q) {
      if (kmers[q].key <= kmers[best].key) best = q;
    }
    if (p >= emit_from && kmers[best].pos != last) out.push_back(kmers[best]);
    last = kmers[best].pos;
  }
  return out;
}

TEST(Minimizer, RingMatchesRescanOracle) {
  util::Xoshiro256 rng(17);
  std::vector<std::string> seqs;
  seqs.push_back(common::randomSequence(rng, 1'500));
  // Low complexity forces key ties inside a window: homopolymers, short
  // periods, a two-letter alphabet, and random runs with N (codes as A).
  seqs.emplace_back(300, 'A');
  std::string period2, period5, binary, runs;
  for (int i = 0; i < 200; ++i) period2 += "AC";
  for (int i = 0; i < 100; ++i) period5 += "AAAAC";
  for (int i = 0; i < 800; ++i) binary += rng.chance(0.5) ? 'A' : 'C';
  while (runs.size() < 1'000) {
    runs.append(static_cast<std::size_t>(rng.range(1, 12)),
                "ACGTN"[rng.below(5)]);
  }
  for (auto* s : {&period2, &period5, &binary, &runs}) seqs.push_back(*s);

  MinimizerScratch scratch;  // one ring reused across every (k, w)
  std::vector<Minimizer> got;
  for (const int w : {1, 2, 3, 5, 10, 16, 17, 64}) {
    for (const int k : {4, 15, 31}) {
      for (const std::string& seq : seqs) {
        for (const std::size_t emit_from :
             {std::size_t{0}, std::size_t{7}, seq.size() / 2}) {
          const auto want = rescanMinimizers(seq, k, w, emit_from);
          extractMinimizers(seq, k, w, emit_from, got, scratch);
          ASSERT_EQ(got.size(), want.size())
              << "w=" << w << " k=" << k << " emit_from=" << emit_from
              << " len=" << seq.size();
          for (std::size_t i = 0; i < want.size(); ++i) {
            ASSERT_EQ(got[i].key, want[i].key) << "w=" << w << " k=" << k;
            ASSERT_EQ(got[i].pos, want[i].pos) << "w=" << w << " k=" << k;
            ASSERT_EQ(got[i].reverse, want[i].reverse)
                << "w=" << w << " k=" << k;
          }
        }
      }
    }
  }
}

// -------------------------------------------------------------------- index

TEST(Index, LookupFindsIndexedPositions) {
  const auto genome = testGenome(100'000);
  MinimizerIndex index;
  index.build(genome, 15, 10, 1'000);
  const refmodel::Reference ref("genome", genome);
  const IndexView view = index.view(ref);
  const auto mins = extractMinimizers(genome, 15, 10);
  ASSERT_FALSE(mins.empty());
  // Every indexed minimizer must be findable at its own position.
  for (std::size_t i = 0; i < mins.size(); i += 97) {
    const auto hits = view.lookup(mins[i].key);
    const bool found = std::any_of(hits.begin(), hits.end(), [&](const IndexHit& h) {
      return h.pos == mins[i].pos;
    });
    EXPECT_TRUE(found) << "minimizer " << i;
  }
}

TEST(Index, UnknownKeyReturnsEmpty) {
  const auto genome = testGenome(50'000);
  MinimizerIndex index;
  index.build(genome, 15, 10, 64);
  const refmodel::Reference ref("genome", genome);
  EXPECT_TRUE(index.view(ref).lookup(0xdeadbeefcafef00dULL).empty());
}

TEST(Index, OccurrenceCapMasksRepeats) {
  // A genome that is one repeated unit: high-occurrence minimizers.
  std::string unit;
  util::Xoshiro256 rng(4);
  unit = common::randomSequence(rng, 500);
  std::string genome;
  for (int i = 0; i < 100; ++i) genome += unit;
  MinimizerIndex capped, uncapped;
  capped.build(genome, 15, 10, 8);
  uncapped.build(genome, 15, 10, 1'000'000);
  EXPECT_LT(capped.size(), uncapped.size() / 4);
}

// -------------------------------------------------------------------- chain

TEST(Chain, PerfectColinearAnchorsFormOneChain) {
  std::vector<Anchor> anchors;
  for (std::uint32_t i = 0; i < 20; ++i) {
    anchors.push_back(Anchor{i * 40, 5'000 + i * 40});
  }
  ChainParams params;
  const auto chains = chainAnchors(anchors, params);
  ASSERT_EQ(chains.size(), 1u);
  EXPECT_EQ(chains[0].anchors, 20);
  EXPECT_EQ(chains[0].ref_begin, 5'000u);
  EXPECT_EQ(chains[0].read_begin, 0u);
}

TEST(Chain, TwoLociFormTwoChains) {
  std::vector<Anchor> anchors;
  for (std::uint32_t i = 0; i < 10; ++i) {
    anchors.push_back(Anchor{i * 40, 5'000 + i * 40});
    anchors.push_back(Anchor{i * 40, 150'000 + i * 40});
  }
  ChainParams params;
  const auto chains = chainAnchors(anchors, params);
  ASSERT_EQ(chains.size(), 2u);  // -P behaviour: both loci reported
  EXPECT_EQ(chains[0].anchors, 10);
  EXPECT_EQ(chains[1].anchors, 10);
}

TEST(Chain, MinAnchorsFiltersNoise) {
  std::vector<Anchor> anchors = {{100, 900}, {50'000, 200'000}};
  ChainParams params;
  params.min_anchors = 3;
  EXPECT_TRUE(chainAnchors(anchors, params).empty());
}

TEST(Chain, EmptyInput) {
  EXPECT_TRUE(chainAnchors({}, ChainParams{}).empty());
}

// ------------------------------------------------------------------- mapper

TEST(Mapper, FindsTrueOriginOfSimulatedReads) {
  const auto genome = testGenome(300'000);
  Mapper mapper{std::string(genome)};
  auto rcfg = readsim::ReadSimConfig::pacbioClr(25, 3'000);
  const auto reads = readsim::simulateReads(genome, rcfg);
  int located = 0;
  for (const auto& r : reads) {
    const auto candidates = mapper.map(r.seq);
    for (const auto& c : candidates) {
      const bool overlaps = c.ref_begin < r.origin_pos + r.origin_len &&
                            r.origin_pos < c.ref_end;
      if (overlaps && c.reverse == r.reverse_strand) {
        ++located;
        break;
      }
    }
  }
  // 10%-error long reads must map reliably.
  EXPECT_GE(located, 23) << "of " << reads.size();
}

TEST(Mapper, BestCandidateCoversMostOfTheRead) {
  const auto genome = testGenome(200'000, 13);
  Mapper mapper{std::string(genome)};
  auto rcfg = readsim::ReadSimConfig::pacbioClr(10, 2'000);
  rcfg.both_strands = false;
  const auto reads = readsim::simulateReads(genome, rcfg);
  for (const auto& r : reads) {
    const auto candidates = mapper.map(r.seq);
    ASSERT_FALSE(candidates.empty());
    const auto& best = candidates.front();
    const std::size_t span = best.ref_end - best.ref_begin;
    EXPECT_GT(span, r.seq.size() / 2);
    EXPECT_LT(span, r.seq.size() * 2);
  }
}

TEST(Mapper, RepeatsYieldMultipleCandidates) {
  // Heavy repeats: reads from a repeat land in several places (-P shape).
  readsim::GenomeConfig gcfg;
  gcfg.length = 200'000;
  gcfg.repeat_fraction = 0.5;
  gcfg.repeat_unit = 5'000;
  gcfg.repeat_divergence = 0.01;
  gcfg.seed = 17;
  const auto genome = readsim::generateGenome(gcfg);
  Mapper mapper{std::string(genome)};
  auto rcfg = readsim::ReadSimConfig::pacbioClr(20, 2'000);
  rcfg.seed = 5;
  const auto reads = readsim::simulateReads(genome, rcfg);
  std::size_t total_candidates = 0;
  for (const auto& r : reads) {
    total_candidates += mapper.map(r.seq).size();
  }
  EXPECT_GT(total_candidates, reads.size());  // secondaries exist
}

TEST(Mapper, BuildAlignmentPairsOrientsQueries) {
  const auto genome = testGenome(150'000, 19);
  Mapper mapper{std::string(genome)};
  auto rcfg = readsim::ReadSimConfig::pacbioClr(6, 1'500);
  const auto reads = readsim::simulateReads(genome, rcfg);
  for (const auto& r : reads) {
    const auto pairs = buildAlignmentPairs(mapper, r.seq, 3);
    for (const auto& p : pairs) {
      EXPECT_FALSE(p.target.empty());
      EXPECT_EQ(p.query.size(), r.seq.size());
    }
  }
}

// ------------------------------------------------------- multi-contig

refmodel::Reference multiContigRef(std::uint64_t seed = 71) {
  refmodel::Reference ref;
  readsim::GenomeConfig gcfg;
  gcfg.repeat_fraction = 0.05;
  const std::size_t lens[] = {60'000, 140'000, 90'000};
  for (std::size_t c = 0; c < 3; ++c) {
    gcfg.length = lens[c];
    gcfg.seed = seed + c;
    ref.addContig("chr" + std::to_string(c + 1),
                  readsim::generateGenome(gcfg));
  }
  return ref;
}

TEST(Index, ParallelBuildIsIdenticalToSerial) {
  const auto ref = multiContigRef();
  MinimizerIndex serial, parallel;
  serial.build(ref, 15, 10, 64, nullptr);
  util::ThreadPool pool(4);
  parallel.build(ref, 15, 10, 64, &pool);
  EXPECT_TRUE(serial == parallel);
  EXPECT_GT(serial.size(), 0u);
  // Shard stats line up with the contig table.
  ASSERT_EQ(serial.perContigKept().size(), 3u);
  std::size_t total = 0;
  for (const std::size_t n : serial.perContigKept()) total += n;
  EXPECT_EQ(total, serial.size());
}

TEST(Index, BlockSplitExtractionIsIdenticalToMonolithic) {
  // Block-split extraction of one sequence reproduces the monolithic
  // pick sequence exactly: the warm-up window reconstructs the
  // duplicate-suppression state across every block boundary.
  readsim::GenomeConfig gcfg;
  gcfg.length = 50'000;
  gcfg.seed = 99;
  gcfg.repeat_fraction = 0.3;  // repeats stress the suppression state
  const auto genome = readsim::generateGenome(gcfg);
  const auto whole = extractMinimizers(genome, 15, 10);
  for (const std::size_t block : {1'000UL, 4'096UL, 49'999UL}) {
    std::vector<Minimizer> stitched;
    for (std::size_t start = 0; start < genome.size(); start += block) {
      const std::size_t end = std::min(genome.size(), start + block);
      const std::size_t tstart = start >= 10 ? start - 10 : 0;
      const std::size_t tend = std::min(genome.size(), end + 14);
      const auto part =
          extractMinimizers(std::string_view(genome).substr(tstart,
                                                            tend - tstart),
                            15, 10, start - tstart);
      for (Minimizer m : part) {
        m.pos += static_cast<std::uint32_t>(tstart);
        stitched.push_back(m);
      }
    }
    ASSERT_EQ(stitched.size(), whole.size()) << "block=" << block;
    for (std::size_t i = 0; i < whole.size(); ++i) {
      EXPECT_EQ(stitched[i].key, whole[i].key) << i;
      EXPECT_EQ(stitched[i].pos, whole[i].pos) << i;
      EXPECT_EQ(stitched[i].reverse, whole[i].reverse) << i;
    }
  }
}

TEST(Index, LargeContigBlockBuildIsIdenticalAcrossBlockSizesAndPools) {
  // A single-contig reference: the build must fan out over blocks and
  // still produce a bit-identical index for every (block size, pool)
  // schedule, including the no-split monolithic build.
  readsim::GenomeConfig gcfg;
  gcfg.length = 120'000;
  gcfg.seed = 123;
  gcfg.repeat_fraction = 0.25;
  refmodel::Reference ref;
  ref.addContig("chrOnly", readsim::generateGenome(gcfg));

  MinimizerIndex mono;
  mono.build(ref, 15, 10, 64, nullptr, /*block_bp=*/0);
  EXPECT_GT(mono.size(), 0u);
  util::ThreadPool pool(4);
  for (const std::size_t block : {3'000UL, 10'000UL, 1UL << 18}) {
    MinimizerIndex serial, parallel;
    serial.build(ref, 15, 10, 64, nullptr, block);
    parallel.build(ref, 15, 10, 64, &pool, block);
    EXPECT_TRUE(mono == serial) << "block=" << block;
    EXPECT_TRUE(serial == parallel) << "block=" << block;
  }
  // Per-contig stats still line up after block accumulation.
  ASSERT_EQ(mono.perContigKept().size(), 1u);
  EXPECT_EQ(mono.perContigKept()[0], mono.size());
}

TEST(Index, MultiContigBuildNeverEmitsCrossBoundarySeeds) {
  // Contig-sharded extraction vs flat extraction over the concatenation:
  // the only missing minimizers must be boundary-window artifacts, and
  // every kept position must lie >= k inside its own contig's end.
  const auto ref = multiContigRef(5);
  MinimizerIndex index;
  index.build(ref, 15, 10, 1'000'000);
  const IndexView view = index.view(ref);
  for (std::uint32_t c = 0; c < ref.contigCount(); ++c) {
    const auto mins = extractMinimizers(ref.contigView(c), 15, 10);
    for (std::size_t i = 0; i < mins.size(); i += 101) {
      const auto hits = view.lookup(mins[i].key);
      const std::size_t global = ref.contig(c).offset + mins[i].pos;
      const bool found =
          std::any_of(hits.begin(), hits.end(),
                      [&](const IndexHit& h) { return h.pos == global; });
      EXPECT_TRUE(found) << "contig " << c << " minimizer " << i;
    }
  }
}

TEST(Chain, CrossContigAnchorsNeverChainTogether) {
  // Perfectly co-linear anchors in global coordinates, but the second
  // half belongs to another contig: one chain per contig, never one
  // spanning both.
  std::vector<Anchor> anchors;
  for (std::uint32_t i = 0; i < 10; ++i) {
    anchors.push_back(Anchor{i * 40, 5'000 + i * 40, 0});
    anchors.push_back(Anchor{(i + 10) * 40, 5'400 + i * 40, 1});
  }
  const auto chains = chainAnchors(anchors, ChainParams{});
  ASSERT_EQ(chains.size(), 2u);
  for (const auto& c : chains) {
    EXPECT_EQ(c.anchors, 10);
    EXPECT_TRUE(c.contig == 0 || c.contig == 1);
  }
  EXPECT_NE(chains[0].contig, chains[1].contig);
}

TEST(Mapper, MultiContigCandidatesStayInBoundsAndFindOrigins) {
  const auto ref = multiContigRef();
  Mapper mapper{ref};
  auto rcfg = readsim::ReadSimConfig::pacbioClr(40, 2'500);
  rcfg.seed = 3;
  const auto reads = readsim::simulateReads(ref, rcfg);
  int located = 0;
  for (const auto& r : reads) {
    const auto candidates = mapper.map(r.seq);
    for (const auto& c : candidates) {
      // No candidate window ever leaves its contig.
      ASSERT_LT(c.contig, ref.contigCount());
      EXPECT_LE(c.ref_end, ref.contig(c.contig).length);
      EXPECT_LE(c.ref_begin, c.ref_end);
      EXPECT_EQ(mapper.candidateText(c).size(), c.ref_end - c.ref_begin);
    }
    const bool hit = std::any_of(
        candidates.begin(), candidates.end(), [&](const Candidate& c) {
          return c.contig == r.origin_contig &&
                 c.ref_begin < r.origin_pos + r.origin_len &&
                 r.origin_pos < c.ref_end && c.reverse == r.reverse_strand;
        });
    located += hit;
  }
  EXPECT_GE(located * 100, static_cast<int>(reads.size()) * 90)
      << located << " of " << reads.size();
}

TEST(Mapper, ReusedSeedScratchMatchesFreshScratch) {
  // One scratch and one pair of output vectors carried across reads of
  // every length (and a read too short to seed) gives exactly what a
  // fresh allocating map gives: no state leaks from read to read.
  const auto ref = multiContigRef();
  Mapper mapper{ref};
  auto rcfg = readsim::ReadSimConfig::pacbioClr(30, 2'500);
  rcfg.seed = 9;
  auto reads = readsim::simulateReads(ref, rcfg);
  reads[7].seq.resize(12);
  reads[13].seq.resize(400);
  SeedScratch scratch;
  std::vector<Minimizer> mins;
  std::vector<Candidate> got;
  for (const auto& r : reads) {
    mapper.map(r.seq, scratch, mins, got);
    const auto want = mapper.map(r.seq);
    const auto want_mins = extractMinimizers(r.seq, 15, 10);
    ASSERT_EQ(mins.size(), want_mins.size()) << r.name;
    for (std::size_t i = 0; i < mins.size(); ++i) {
      EXPECT_EQ(mins[i].key, want_mins[i].key) << r.name;
      EXPECT_EQ(mins[i].pos, want_mins[i].pos) << r.name;
    }
    ASSERT_EQ(got.size(), want.size()) << r.name;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].contig, want[i].contig) << r.name;
      EXPECT_EQ(got[i].ref_begin, want[i].ref_begin) << r.name;
      EXPECT_EQ(got[i].ref_end, want[i].ref_end) << r.name;
      EXPECT_EQ(got[i].read_begin, want[i].read_begin) << r.name;
      EXPECT_EQ(got[i].read_end, want[i].read_end) << r.name;
      EXPECT_EQ(got[i].reverse, want[i].reverse) << r.name;
      EXPECT_EQ(got[i].score, want[i].score) << r.name;
      EXPECT_EQ(got[i].anchors, want[i].anchors) << r.name;
    }
  }
}

TEST(Mapper, BoundaryReadsMapToTheirOwnContig) {
  // Exact-copy reads taken flush against every contig boundary: each
  // must come back as a candidate on its own contig, in bounds.
  const auto ref = multiContigRef(29);
  Mapper mapper{ref};
  const std::size_t rl = 1'200;
  for (std::uint32_t c = 0; c < ref.contigCount(); ++c) {
    const auto text = ref.contigView(c);
    const std::string suffix(text.substr(text.size() - rl));
    const std::string prefix(text.substr(0, rl));
    for (const auto& [read, where] :
         {std::pair{suffix, text.size() - rl}, std::pair{prefix, 0ul}}) {
      const auto candidates = mapper.map(read);
      ASSERT_FALSE(candidates.empty()) << "contig " << c;
      const auto& best = candidates.front();
      EXPECT_EQ(best.contig, c);
      EXPECT_FALSE(best.reverse);
      EXPECT_LE(best.ref_end, ref.contig(c).length);
      // The window overlaps the true span.
      EXPECT_LT(best.ref_begin, where + rl);
      EXPECT_LT(where, best.ref_end);
    }
  }
}

TEST(Mapper, RandomReadYieldsNoConfidentCandidate) {
  const auto genome = testGenome(100'000, 23);
  Mapper mapper{std::string(genome)};
  util::Xoshiro256 rng(99);
  const auto junk = common::randomSequence(rng, 2'000);
  const auto candidates = mapper.map(junk);
  // A random 2 kb sequence should produce at most incidental hits.
  EXPECT_LE(candidates.size(), 2u);
}

}  // namespace
}  // namespace gx::mapper
