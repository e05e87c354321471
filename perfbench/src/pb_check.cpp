// pb_check — validate a PAF file against the reference and the reads it
// was mapped from, and score it against the truth in the read names.
//
//   pb_check --index ref.gxi --reads reads.fq --paf out.paf
//
// Checks (any failure exits 1): every line parses; every record names a
// read of the input, and a read's records are contiguous; every cg:Z:
// CIGAR passes common::verifyAlignment against its reference span and
// its oriented read span. Prints one JSON object: reads, records, the
// primary-record count (the first record of each read), recall (share of
// reads whose primary hits the truth locus: same contig and strand,
// overlapping [pos, pos + read length)) and precision (share of primary
// records that hit).

#include <cstdio>
#include <exception>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "cli.hpp"
#include "common.hpp"
#include "genasmx/common/cigar.hpp"
#include "genasmx/common/sequence.hpp"
#include "genasmx/common/verify.hpp"
#include "genasmx/io/fastx.hpp"
#include "genasmx/mapper/index_io.hpp"

namespace {

struct ReadInfo {
  std::string seq;
  pb::Truth truth;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace gx;
  std::string index_path, reads_path, paf_path;
  cli::Parser parser;
  parser.option("--index", index_path);
  parser.option("--reads", reads_path);
  parser.option("--paf", paf_path);
  if (!parser.parse(argc, argv) || index_path.empty() || reads_path.empty() ||
      paf_path.empty()) {
    std::fprintf(stderr,
                 "usage: pb_check --index ref.gxi --reads reads.fq --paf "
                 "out.paf\n");
    return 2;
  }
  try {
    const mapper::MappedIndex index(index_path);
    const refmodel::Reference& ref = index.reference();
    std::unordered_map<std::string, std::uint32_t> contig_ids;
    for (std::uint32_t c = 0; c < ref.contigCount(); ++c) {
      contig_ids.emplace(ref.name(c), c);
    }
    std::unordered_map<std::string, ReadInfo> reads;
    for (auto& rec : io::readFastxFile(reads_path)) {
      ReadInfo info;
      if (!pb::parseTruth(rec.name, info.truth)) {
        throw std::runtime_error("read without truth name: " + rec.name);
      }
      info.seq = std::move(rec.seq);
      reads.emplace(std::move(rec.name), std::move(info));
    }

    const std::string paf = pb::readFile(paf_path);
    std::istringstream in(paf);
    std::string line;
    std::unordered_set<std::string> seen;
    std::string current;
    std::uint64_t records = 0, primaries = 0, hits = 0, cigars = 0;
    std::uint64_t line_no = 0;
    std::string rc;
    while (std::getline(in, line)) {
      ++line_no;
      const auto f = pb::splitTabs(line);
      const std::string where = "line " + std::to_string(line_no);
      if (f.size() < 12) throw std::runtime_error(where + ": < 12 fields");
      const std::string qname(f[0]);
      const auto it = reads.find(qname);
      if (it == reads.end()) {
        throw std::runtime_error(where + ": unknown read " + qname);
      }
      const ReadInfo& read = it->second;
      const bool reverse = f[4] == "-";
      const auto cit = contig_ids.find(std::string(f[5]));
      if (cit == contig_ids.end() || (f[4] != "+" && !reverse)) {
        throw std::runtime_error(where + ": bad target or strand");
      }
      const std::uint64_t qb = pb::toU64(f[2]), qe = pb::toU64(f[3]);
      const std::uint64_t tb = pb::toU64(f[7]), te = pb::toU64(f[8]);
      const std::size_t contig_len = ref.contig(cit->second).length;
      if (qb > qe || qe > read.seq.size() || tb > te || te > contig_len ||
          pb::toU64(f[1]) != read.seq.size() ||
          pb::toU64(f[6]) != contig_len) {
        throw std::runtime_error(where + ": coordinates out of range");
      }
      ++records;
      if (qname != current) {
        if (!seen.insert(qname).second) {
          throw std::runtime_error(where + ": records of " + qname +
                                   " are not contiguous");
        }
        current = qname;
        ++primaries;
        const pb::Truth& t = read.truth;
        if (f[5] == t.contig && reverse == t.reverse &&
            tb < t.pos + read.seq.size() && te > t.pos) {
          ++hits;
        }
      }
      for (std::size_t i = 12; i < f.size(); ++i) {
        if (f[i].rfind("cg:Z:", 0) != 0) continue;
        const common::Cigar cigar = common::Cigar::parse(f[i].substr(5));
        std::string_view query = read.seq;
        if (reverse) {
          rc = common::reverseComplement(read.seq);
          query = rc;
        }
        // PAF query coordinates are forward-strand; the CIGAR aligns the
        // oriented read.
        const std::size_t ob = reverse ? read.seq.size() - qe : qb;
        const auto v = common::verifyAlignment(
            ref.contigView(cit->second).substr(tb, te - tb),
            query.substr(ob, qe - qb), cigar);
        if (!v.valid) {
          throw std::runtime_error(where + ": invalid CIGAR for " + qname +
                                   ": " + v.error);
        }
        ++cigars;
      }
    }
    const double n = static_cast<double>(reads.size());
    std::printf(
        "{\"reads\": %zu, \"records\": %llu, \"primary\": %llu, \"cigars\": "
        "%llu, \"recall\": %.6f, \"precision\": %.6f}\n",
        reads.size(), static_cast<unsigned long long>(records),
        static_cast<unsigned long long>(primaries),
        static_cast<unsigned long long>(cigars),
        n > 0 ? static_cast<double>(hits) / n : 0.0,
        primaries > 0
            ? static_cast<double>(hits) / static_cast<double>(primaries)
            : 0.0);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pb_check: %s\n", e.what());
    return 1;
  }
  return 0;
}
