// pb_gen — write one workload's seeded inputs: <out>/ref.fa and
// <out>/reads.fq. Calls the readsim API with the workload's explicit
// ErrorModel and GenomeConfig::repeat_fraction; the same --seed always
// yields byte-identical files.
//
//   pb_gen --workload NAME --seed N --out DIR

#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "cli.hpp"
#include "common.hpp"
#include "genasmx/io/fastx.hpp"
#include "genasmx/readsim/genome.hpp"
#include "genasmx/readsim/read_simulator.hpp"
#include "genasmx/refmodel/reference.hpp"

int main(int argc, char** argv) {
  using namespace gx;
  std::string workload, out;
  std::size_t seed = 1;
  cli::Parser parser;
  parser.option("--workload", workload);
  parser.option("--seed", seed);
  parser.option("--out", out);
  if (!parser.parse(argc, argv) || workload.empty() || out.empty()) {
    std::fprintf(stderr, "usage: pb_gen --workload NAME --seed N --out DIR\n");
    return 2;
  }
  try {
    const pb::InputSpec& spec = pb::inputFor(workload);

    // Contig lengths staggered 3:4:5:... so origin sampling is uneven.
    std::size_t weight_total = 0;
    for (std::size_t c = 0; c < spec.contigs; ++c) weight_total += c + 3;
    refmodel::Reference ref;
    std::vector<io::FastxRecord> ref_records;
    for (std::size_t c = 0; c < spec.contigs; ++c) {
      readsim::GenomeConfig g;
      g.length = spec.genome_bp * (c + 3) / weight_total;
      g.repeat_fraction = spec.repeat_fraction;
      g.seed = seed * 1000 + c;
      const std::string name = "chr" + std::to_string(c + 1);
      std::string seq = readsim::generateGenome(g);
      ref.addContig(name, seq);
      ref_records.push_back({name, "", std::move(seq), ""});
    }

    readsim::ReadSimConfig rc;
    rc.read_count = spec.reads;
    rc.read_length = spec.read_len;
    rc.errors = spec.errors;
    rc.seed = seed * 1000 + 999;
    const auto reads = readsim::simulateReads(ref, rc);
    std::vector<io::FastxRecord> read_records;
    read_records.reserve(reads.size());
    for (const auto& r : reads) {
      read_records.push_back(
          {r.name, "", r.seq, std::string(r.seq.size(), 'I')});
    }
    io::writeFastxFile(out + "/ref.fa", ref_records);
    io::writeFastxFile(out + "/reads.fq", read_records);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pb_gen: %s\n", e.what());
    return 1;
  }
  return 0;
}
