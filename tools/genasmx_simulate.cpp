// genasmx_simulate — generate a synthetic genome and PBSIM2-class reads
// (the paper's workload) as FASTA/FASTQ files.
//
//   genasmx_simulate --out <out_prefix> [--genome=BP] [--contigs=N]
//                    [--reads=N] [--length=BP] [--error=FRAC] [--illumina]
//                    [--seed=S]
//   genasmx_simulate <out_prefix> [options]                  (compat)
//
// Options accept both --opt=VALUE and --opt VALUE (shared tools/cli.hpp
// dialect). Writes <out_prefix>.fa (genome) and <out_prefix>.reads.fq.
// --error overrides the preset's error rate (PacBio CLR 10%, --illumina
// 0.3%) only when given.
//
// --contigs=N > 1 emits a multi-contig reference (contigs chr1..chrN of
// staggered lengths summing to --genome) and samples read origins across
// contigs proportional to length; the (contig, offset, strand) truth is
// encoded in each read name (read_<i>!<contig>!<pos>!<+|->) and repeated
// in the comment field. With the default --contigs=1 the output is byte-
// identical to the pre-multi-contig tool (single "synthetic_genome"
// record, plain read_<i> names, origin in the comment only).

#include <cstdio>
#include <string>
#include <vector>

#include "cli.hpp"
#include "genasmx/io/fastx.hpp"
#include "genasmx/readsim/genome.hpp"
#include "genasmx/readsim/read_simulator.hpp"
#include "genasmx/refmodel/reference.hpp"

int main(int argc, char** argv) {
  using namespace gx;
  cli::ignoreSigpipe();
  std::string prefix;
  std::string pos_prefix;
  std::size_t genome_len = 1'000'000;
  std::size_t n_contigs = 1;
  std::size_t n_reads = 500;
  std::size_t read_len = 10'000;
  double error = -1.0;  ///< < 0: keep the preset's rate (10% / 0.3%)
  bool illumina = false;
  std::size_t seed = 42;
  cli::Parser parser;
  parser.option("--out", prefix);
  parser.option("--genome", genome_len);
  parser.option("--contigs", n_contigs);
  parser.option("--reads", n_reads);
  parser.option("--length", read_len);
  parser.option("--error", error);
  parser.option("--seed", seed);
  parser.flag("--illumina", illumina);
  parser.positional(pos_prefix);  // compat: genasmx_simulate <out_prefix>
  if (!parser.parse(argc, argv) ||
      (prefix.empty() && pos_prefix.empty())) {
    std::fprintf(stderr,
                 "usage: genasmx_simulate --out <out_prefix> [--genome=BP] "
                 "[--contigs=N] [--reads=N] [--length=BP] [--error=FRAC] "
                 "[--illumina] [--seed=S]\n"
                 "       genasmx_simulate <out_prefix> [options]\n");
    return 2;
  }
  if (prefix.empty()) prefix = pos_prefix;
  if (n_contigs == 0 || genome_len / (n_contigs * (n_contigs + 1) / 2) == 0) {
    std::fprintf(stderr, "error: --genome too small for --contigs=%zu\n",
                 n_contigs);
    return 2;
  }

  auto rcfg = illumina ? readsim::ReadSimConfig::illumina(n_reads, read_len)
                       : readsim::ReadSimConfig::pacbioClr(n_reads, read_len);
  if (error >= 0) rcfg.errors.error_rate = error;
  rcfg.seed = seed + 1;

  std::vector<io::FastxRecord> genome_records;
  std::vector<io::FastxRecord> read_records;

  if (n_contigs == 1) {
    readsim::GenomeConfig gcfg;
    gcfg.length = genome_len;
    gcfg.seed = seed;
    const auto genome = readsim::generateGenome(gcfg);
    const auto reads = readsim::simulateReads(genome, rcfg);
    genome_records.push_back({"synthetic_genome",
                              "len=" + std::to_string(genome.size()), genome,
                              ""});
    read_records.reserve(reads.size());
    for (const auto& r : reads) {
      io::FastxRecord rec;
      rec.name = r.name;
      rec.comment = "origin=" + std::to_string(r.origin_pos) + "-" +
                    std::to_string(r.origin_pos + r.origin_len) +
                    " strand=" + (r.reverse_strand ? "-" : "+") +
                    " edits=" + std::to_string(r.true_edits);
      rec.seq = r.seq;
      rec.qual.assign(r.seq.size(), 'I');
      read_records.push_back(std::move(rec));
    }
  } else {
    // Staggered contig lengths (1:2:...:N, summing to --genome) so
    // length-proportional origin sampling is visible in the output; each
    // contig gets its own genome seed so content is contig-distinct.
    refmodel::Reference ref;
    const std::size_t weight_total = n_contigs * (n_contigs + 1) / 2;
    for (std::size_t c = 0; c < n_contigs; ++c) {
      readsim::GenomeConfig gcfg;
      gcfg.length = genome_len * (c + 1) / weight_total;
      gcfg.seed = seed + c;
      const std::string name = "chr" + std::to_string(c + 1);
      const auto contig = readsim::generateGenome(gcfg);
      ref.addContig(name, contig);
      genome_records.push_back(
          {name, "len=" + std::to_string(contig.size()), contig, ""});
    }
    const auto reads = readsim::simulateReads(ref, rcfg);
    read_records.reserve(reads.size());
    for (const auto& r : reads) {
      io::FastxRecord rec;
      rec.name = r.name;  // truth-encoding: read_<i>!<contig>!<pos>!<+|->
      rec.comment = "origin=" + ref.name(r.origin_contig) + ":" +
                    std::to_string(r.origin_pos) + "-" +
                    std::to_string(r.origin_pos + r.origin_len) +
                    " strand=" + (r.reverse_strand ? "-" : "+") +
                    " edits=" + std::to_string(r.true_edits);
      rec.seq = r.seq;
      rec.qual.assign(r.seq.size(), 'I');
      read_records.push_back(std::move(rec));
    }
  }

  io::writeFastxFile(prefix + ".fa", genome_records);
  io::writeFastxFile(prefix + ".reads.fq", read_records);
  std::size_t total_bp = 0;
  for (const auto& rec : genome_records) total_bp += rec.seq.size();
  std::fprintf(stderr,
               "wrote %s.fa (%zu bp, %zu contigs) and %s.reads.fq (%zu reads)\n",
               prefix.c_str(), total_bp, genome_records.size(), prefix.c_str(),
               read_records.size());
  return 0;
}
