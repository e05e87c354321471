#include <gtest/gtest.h>

#include <stdexcept>

#include "genasmx/common/cigar.hpp"
#include "genasmx/common/sequence.hpp"
#include "genasmx/common/verify.hpp"
#include "genasmx/refdp/edit_dp.hpp"
#include "genasmx/util/prng.hpp"

namespace gx::common {
namespace {

// ---------------------------------------------------------------- sequence

TEST(Sequence, BaseCodeRoundTrip) {
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(baseCode(codeBase(static_cast<std::uint8_t>(c))), c);
  }
  EXPECT_EQ(baseCode('a'), baseCode('A'));
  EXPECT_EQ(baseCode('N'), 0);  // N folds to A by convention
}

TEST(Sequence, Complement) {
  EXPECT_EQ(complement('A'), 'T');
  EXPECT_EQ(complement('T'), 'A');
  EXPECT_EQ(complement('C'), 'G');
  EXPECT_EQ(complement('G'), 'C');
}

// The switch forms baseCode/complement had before they became table
// lookups: the oracle the tables must match on every byte value.
std::uint8_t switchBaseCode(char c) {
  switch (c) {
    case 'A': case 'a': return 0;
    case 'C': case 'c': return 1;
    case 'G': case 'g': return 2;
    case 'T': case 't': return 3;
    default: return 0;
  }
}

char switchComplement(char c) {
  switch (c) {
    case 'A': case 'a': return 'T';
    case 'C': case 'c': return 'G';
    case 'G': case 'g': return 'C';
    case 'T': case 't': return 'A';
    default: return 'A';
  }
}

TEST(Sequence, TablesMatchSwitchOracleOnEveryByte) {
  for (int v = 0; v < 256; ++v) {
    const char c = static_cast<char>(v);
    EXPECT_EQ(baseCode(c), switchBaseCode(c)) << "byte " << v;
    EXPECT_EQ(complement(c), switchComplement(c)) << "byte " << v;
  }
  // Still usable in constant expressions.
  static_assert(baseCode('T') == 3 && baseCode('n') == 0);
  static_assert(complement('g') == 'C' && complement('N') == 'A');
}

TEST(Sequence, NonAcgtCodesAsAOnBothStrands) {
  // N codes as A on the forward strand; reverseComplement turns it into
  // 'A' as well, so the minus strand codes it as A, not T.
  EXPECT_EQ(baseCode('N'), baseCode('A'));
  EXPECT_EQ(reverseComplement("ANC"), "GAT");
  EXPECT_EQ(baseCode(reverseComplement("N")[0]), 0);
}

TEST(Sequence, ReversedAndReverseComplement) {
  EXPECT_EQ(reversed("ACGT"), "TGCA");
  EXPECT_EQ(reversed(""), "");
  EXPECT_EQ(reverseComplement("ACGT"), "ACGT");  // palindrome
  EXPECT_EQ(reverseComplement("AAAC"), "GTTT");
}

TEST(Sequence, RandomSequenceAlphabetAndLength) {
  util::Xoshiro256 rng(1);
  const auto s = randomSequence(rng, 5000);
  EXPECT_EQ(s.size(), 5000u);
  int counts[4] = {0, 0, 0, 0};
  for (char c : s) {
    ASSERT_TRUE(c == 'A' || c == 'C' || c == 'G' || c == 'T');
    counts[baseCode(c)]++;
  }
  for (int c : counts) EXPECT_GT(c, 1000);  // roughly uniform
}

TEST(Sequence, MutateRespectsEditBudget) {
  util::Xoshiro256 rng(2);
  for (int trial = 0; trial < 30; ++trial) {
    const auto s = randomSequence(rng, 80);
    const std::size_t edits = rng.below(10);
    const auto t = mutateSequence(rng, s, edits);
    EXPECT_LE(refdp::editDistance(s, t), static_cast<int>(edits));
  }
}

TEST(Sequence, MutateZeroEditsIsIdentity) {
  util::Xoshiro256 rng(3);
  const auto s = randomSequence(rng, 50);
  EXPECT_EQ(mutateSequence(rng, s, 0), s);
}

TEST(PackedSequence, RoundTrip) {
  util::Xoshiro256 rng(4);
  for (std::size_t len : {0u, 1u, 31u, 32u, 33u, 64u, 100u, 1000u}) {
    const auto s = randomSequence(rng, len);
    PackedSequence p(s);
    EXPECT_EQ(p.size(), len);
    EXPECT_EQ(p.decode(0, len), s);
    for (std::size_t i = 0; i < len; ++i) {
      EXPECT_EQ(p.at(i), s[i]);
      EXPECT_EQ(p.code(i), baseCode(s[i]));
    }
  }
}

TEST(PackedSequence, DecodeClampsAtEnd) {
  PackedSequence p(std::string_view("ACGTACGT"));
  EXPECT_EQ(p.decode(6, 100), "GT");
  EXPECT_EQ(p.decode(8, 10), "");
  EXPECT_EQ(p.decode(100, 1), "");
}

// ------------------------------------------------------------------- cigar

TEST(Cigar, PushMergesAdjacentRuns) {
  Cigar c;
  c.push(EditOp::Match, 3);
  c.push(EditOp::Match, 2);
  c.push(EditOp::Mismatch);
  c.push(EditOp::Match, 1);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.str(), "5=1X1=");
}

TEST(Cigar, PushZeroIsNoop) {
  Cigar c;
  c.push(EditOp::Match, 0);
  EXPECT_TRUE(c.empty());
}

TEST(Cigar, Lengths) {
  const Cigar c = Cigar::parse("10=2X3I4D");
  EXPECT_EQ(c.opCount(), 19u);
  EXPECT_EQ(c.queryLength(), 15u);   // = + X + I
  EXPECT_EQ(c.targetLength(), 16u);  // = + X + D
  EXPECT_EQ(c.editDistance(), 9u);   // X + I + D
  EXPECT_EQ(c.count(EditOp::Match), 10u);
  EXPECT_EQ(c.count(EditOp::Insertion), 3u);
}

TEST(Cigar, ParseStrRoundTrip) {
  for (const char* s : {"", "1=", "100=25X3I4D7=", "12D", "999I1D"}) {
    EXPECT_EQ(Cigar::parse(s).str(), s);
  }
}

TEST(Cigar, ParseAcceptsMAsMatch) {
  EXPECT_EQ(Cigar::parse("5M").str(), "5=");
}

TEST(Cigar, ParseRejectsGarbage) {
  EXPECT_THROW(Cigar::parse("=="), std::invalid_argument);
  EXPECT_THROW(Cigar::parse("5"), std::invalid_argument);
  EXPECT_THROW(Cigar::parse("3Q"), std::invalid_argument);
}

TEST(Cigar, PrefixSplitsRuns) {
  const Cigar c = Cigar::parse("5=2X3=");
  EXPECT_EQ(c.prefix(0).str(), "");
  EXPECT_EQ(c.prefix(5).str(), "5=");
  EXPECT_EQ(c.prefix(6).str(), "5=1X");
  EXPECT_EQ(c.prefix(100).str(), "5=2X3=");
}

TEST(Cigar, AppendMergesAcrossBoundary) {
  Cigar a = Cigar::parse("3=");
  a.append(Cigar::parse("2=1X"));
  EXPECT_EQ(a.str(), "5=1X");
}

TEST(Cigar, TrimIndelEndsStripsFlankingRuns) {
  const auto trim = trimIndelEnds(Cigar::parse("3D2I10=1D5=4I2D"));
  EXPECT_EQ(trim.cigar.str(), "10=1D5=");
  EXPECT_EQ(trim.target_lead, 3u);
  EXPECT_EQ(trim.query_lead, 2u);
  EXPECT_EQ(trim.query_trail, 4u);
  EXPECT_EQ(trim.target_trail, 2u);
}

TEST(Cigar, TrimIndelEndsKeepsInteriorAndMismatchFlanks) {
  // Mismatches are consuming columns: nothing to trim.
  const auto trim = trimIndelEnds(Cigar::parse("1X3=2I3=1X"));
  EXPECT_EQ(trim.cigar.str(), "1X3=2I3=1X");
  EXPECT_EQ(trim.query_lead + trim.query_trail + trim.target_lead +
                trim.target_trail,
            0u);
}

TEST(Cigar, TrimIndelEndsAllIndelCigar) {
  const auto trim = trimIndelEnds(Cigar::parse("5D3I"));
  EXPECT_TRUE(trim.cigar.empty());
  EXPECT_EQ(trim.target_lead, 5u);
  EXPECT_EQ(trim.query_lead, 3u);
  EXPECT_TRUE(trimIndelEnds(Cigar{}).cigar.empty());
}

// ------------------------------------------------------------------ verify

TEST(Verify, AcceptsCorrectAlignment) {
  //   T: AC-GT
  //   Q: ACTGA
  const auto r = verifyAlignment("ACGT", "ACTGA", Cigar::parse("2=1I1=1X"));
  EXPECT_TRUE(r.valid) << r.error;
  EXPECT_EQ(r.cost, 2u);
}

TEST(Verify, RejectsWrongMatch) {
  const auto r = verifyAlignment("AAAA", "AAAT", Cigar::parse("4="));
  EXPECT_FALSE(r.valid);
  EXPECT_NE(r.error.find("disagrees"), std::string::npos);
}

TEST(Verify, RejectsMismatchOnEqualChars) {
  const auto r = verifyAlignment("AAAA", "AAAA", Cigar::parse("3=1X"));
  EXPECT_FALSE(r.valid);
}

TEST(Verify, RejectsUnderConsumption) {
  EXPECT_FALSE(verifyAlignment("ACGT", "ACGT", Cigar::parse("3=")).valid);
  EXPECT_FALSE(verifyAlignment("ACGT", "ACG", Cigar::parse("3=")).valid);
}

TEST(Verify, RejectsOverConsumption) {
  EXPECT_FALSE(verifyAlignment("AC", "AC", Cigar::parse("3=")).valid);
  EXPECT_FALSE(verifyAlignment("AC", "AC", Cigar::parse("2=1I")).valid);
  EXPECT_FALSE(verifyAlignment("AC", "AC", Cigar::parse("2=1D")).valid);
}

TEST(Verify, EmptyPair) {
  EXPECT_TRUE(verifyAlignment("", "", Cigar()).valid);
  EXPECT_FALSE(verifyAlignment("A", "", Cigar()).valid);
}

TEST(Verify, PureIndelAlignments) {
  EXPECT_TRUE(verifyAlignment("", "ACG", Cigar::parse("3I")).valid);
  EXPECT_TRUE(verifyAlignment("ACG", "", Cigar::parse("3D")).valid);
}

TEST(Render, ProducesThreeLines) {
  const auto text =
      renderAlignment("ACGT", "ACTGA", Cigar::parse("2=1I1=1X"));
  EXPECT_NE(text.find("T: AC-GT"), std::string::npos);
  EXPECT_NE(text.find("Q: ACTGA"), std::string::npos);
}

}  // namespace
}  // namespace gx::common
