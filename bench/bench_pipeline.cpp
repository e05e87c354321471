// E6 — End-to-end pipeline (the paper's methodology, Section II) plus
// the tracked perf trajectory.
//
// Paper: "We simulate 500 PacBio reads from the human genome using
// PBSIM2, each of length 10kb. We map these reads to the human genome
// using minimap2 and obtain all chains (candidate locations) it
// generates using the -P flag, 138,929 locations in total."
//
// Default mode reproduces each stage with the in-repo substrates and
// reports per-stage timing plus candidate statistics (--scale=paper for
// the full size). --quick runs the fixed deterministic tracked workload
// instead and, with --json=FILE, records the numbers every future PR is
// held against (see tools/run_bench.sh and README "Performance"):
//   * windowed-improved solver throughput (windows/sec, alignments/sec)
//     with MemStats DP traffic and steady-state scratch allocations
//     (must be 0 per window once the arenas are warm),
//   * MappingPipeline reads/sec for the secondary-emitting full flow and
//     the primary-only two-phase distance-first flow (with and without
//     the sketch prefilter), plus the two-phase speedup,
//   * peak RSS.

#include <cstdio>
#include <string>
#include <thread>

#include "bench_common.hpp"
#include "genasmx/core/windowed.hpp"
#include "genasmx/engine/registry.hpp"
#include "genasmx/io/paf.hpp"
#include "genasmx/mapper/index.hpp"
#include "genasmx/mapper/index_io.hpp"
#include "genasmx/pipeline/pipeline.hpp"
#include "genasmx/refmodel/reference.hpp"
#include "genasmx/simd/batch_solver.hpp"
#include "genasmx/util/stats.hpp"
#include "genasmx/util/thread_pool.hpp"
#include "genasmx/util/timer.hpp"

namespace {

using namespace gx;

std::vector<io::FastxRecord> toFastx(
    const std::vector<readsim::SimulatedRead>& reads) {
  std::vector<io::FastxRecord> out;
  out.reserve(reads.size());
  for (const auto& r : reads) {
    io::FastxRecord rec;
    rec.name = r.name;
    rec.seq = r.seq;
    rec.qual.assign(r.seq.size(), 'I');
    out.push_back(std::move(rec));
  }
  return out;
}

/// In-process repetitions of each kernel pass: one ~40 ms pass cannot
/// tell a 10% shift from host noise, so the bench reports the median of
/// 25 with its interquartile range.
constexpr int kKernelPasses = 25;

/// Per-pass wall seconds of kKernelPasses runs of fn, after one untimed
/// warm-up run.
template <class Fn>
util::Summary timePasses(Fn&& fn) {
  fn();
  util::Summary s;
  for (int i = 0; i < kKernelPasses; ++i) {
    util::Timer t;
    fn();
    s.add(t.seconds());
  }
  return s;
}

double iqr(const util::Summary& s) {
  return s.percentile(75.0) - s.percentile(25.0);
}

double perSec(std::size_t n, double seconds) {
  return seconds > 0 ? static_cast<double>(n) / seconds : 0;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0;
}

struct FlowTiming {
  double seconds = 0;
  double reads_per_sec = 0;
  std::size_t records = 0;
  pipeline::StageTimes stages{};        ///< breakdown of the timed pass
  pipeline::PrefilterStats prefilter{}; ///< prefilter work of the timed pass
  std::uint64_t prefilter_steady_grow_events = 0;  ///< must be 0 once warm
};

FlowTiming timeFlow(const std::string& genome,
                    const std::vector<io::FastxRecord>& reads,
                    bool emit_secondary,
                    pipeline::PrefilterMode prefilter =
                        pipeline::PrefilterMode::kOff) {
  pipeline::PipelineConfig pcfg;
  pcfg.engine.backend = "windowed-improved";
  pcfg.engine.threads = 1;  // single-thread: stable, host-comparable
  pcfg.emit_secondary = emit_secondary;
  pcfg.prefilter.mode = prefilter;
  pipeline::MappingPipeline pipe(
      refmodel::Reference("bench_ref", std::string(genome)), pcfg);
  // Warm pass (index/file-cache/arena first-touch), then the timed pass.
  (void)pipe.mapBatch(reads);
  const pipeline::StageTimes warm_stages = pipe.stageTimes();
  const pipeline::PrefilterStats warm_pf = pipe.prefilterStats();
  util::Timer t;
  const auto records = pipe.mapBatch(reads);
  FlowTiming ft;
  ft.seconds = t.seconds();
  ft.reads_per_sec =
      ft.seconds > 0 ? static_cast<double>(reads.size()) / ft.seconds : 0;
  ft.records = records.size();
  ft.stages = pipe.stageTimes() - warm_stages;
  ft.stages.index_build_s = warm_stages.index_build_s;  // charged once
  const pipeline::PrefilterStats& pf = pipe.prefilterStats();
  ft.prefilter.reads_sketched = pf.reads_sketched - warm_pf.reads_sketched;
  ft.prefilter.windows_sketched =
      pf.windows_sketched - warm_pf.windows_sketched;
  ft.prefilter.candidates_seen = pf.candidates_seen - warm_pf.candidates_seen;
  ft.prefilter.candidates_filtered =
      pf.candidates_filtered - warm_pf.candidates_filtered;
  ft.prefilter.sequence_scans = pf.sequence_scans - warm_pf.sequence_scans;
  ft.prefilter.scratch_grow_events = pf.scratch_grow_events;
  // Sketch scratch growth during the timed (steady-state) pass: the
  // prefilter twin of steady_scratch_allocs_per_window.
  ft.prefilter_steady_grow_events =
      pf.scratch_grow_events - warm_pf.scratch_grow_events;
  return ft;
}

int runTracked(bench::WorkloadConfig cfg) {
  // The tracked workload is fixed: deterministic seeds, repeat-rich
  // genome (so reads carry secondary candidates, as the paper's human-
  // genome workload does), sized to finish in seconds on one core.
  cfg.genome_len = 300'000;
  cfg.read_count = 100;
  cfg.read_length = 2'500;
  cfg.error_rate = 0.10;
  cfg.seed = 1234;
  const auto w = bench::buildWorkload(cfg);
  const auto reads = toFastx(w.reads);

  bench::printHeader("E6: tracked perf (bench_pipeline --quick)",
                     "perf trajectory baseline; see BENCH_pipeline.json");
  bench::printWorkload(cfg, w);

  // --- solver-level metrics over the workload's candidate pairs.
  core::WindowConfig wcfg;
  const int nw = bitvector::wordsNeeded(wcfg.window);
  if (nw != 1) {
    std::fprintf(stderr, "unexpected window width\n");
    return 1;
  }
  core::ImprovedWindowSolver<1> solver;
  core::WindowBuffers bufs;
  // Pass 1: warm the arenas. Pass 2: timed, uncounted. Pass 3: counted
  // (steady state — scratch_allocs must be 0).
  for (const auto& p : w.pairs) {
    (void)core::alignWindowed(solver, p.target, p.query, wcfg, bufs);
  }
  util::Timer t_align;
  std::uint64_t total_cost = 0;
  for (const auto& p : w.pairs) {
    total_cost += core::alignWindowed(solver, p.target, p.query, wcfg, bufs)
                      .cigar.editDistance();
  }
  const double align_seconds = t_align.seconds();
  util::MemStats steady;
  for (const auto& p : w.pairs) {
    (void)core::alignWindowed(solver, p.target, p.query, wcfg, bufs,
                              util::CountingMemCounter(steady));
  }
  const double windows = static_cast<double>(steady.problems);
  const double windows_per_sec =
      align_seconds > 0 ? windows / align_seconds : 0;
  const double aligns_per_sec =
      align_seconds > 0 ? static_cast<double>(w.pairs.size()) / align_seconds
                        : 0;

  std::printf("solver: %zu pairs, %.0f windows in %.3fs "
              "(%.1f windows/s, %.1f alignments/s), cost=%llu\n",
              w.pairs.size(), windows, align_seconds, windows_per_sec,
              aligns_per_sec, static_cast<unsigned long long>(total_cost));
  std::printf("solver steady-state scratch allocations: %llu "
              "(per window: %.4f — must be 0)\n",
              static_cast<unsigned long long>(steady.scratch_allocs),
              windows > 0 ? static_cast<double>(steady.scratch_allocs) /
                                windows
                          : 0);

  // --- distance kernel: scalar solveDistance vs the lane-parallel
  // SimdBatchSolver over the same W=64 window problems (sliced from the
  // workload's candidate pairs along the chain diagonal). This is the
  // tracked batched-kernel stat: both paths must agree bit for bit, and
  // the speedup is the PR-5 acceptance number.
  const simd::IsaLevel isa = simd::activeIsa();
  std::vector<simd::WindowProblem> dwin;
  for (const auto& p : w.pairs) {
    const std::size_t tw = static_cast<std::size_t>(wcfg.textWindow());
    for (std::size_t off = 0;
         off + tw <= p.target.size() && off + 64 <= p.query.size();
         off += 64) {
      simd::WindowProblem wp;
      wp.text = std::string_view(p.target).substr(off, tw);
      wp.pattern = std::string_view(p.query).substr(off, 64);
      dwin.push_back(wp);
    }
  }
  // StartOnly with the always-solvable cap: the windowed drivers'
  // mid-window distance shape.
  genasm::WindowSpec dspec;
  std::vector<int> d_scalar(dwin.size(), -2);
  std::vector<int> d_batched(dwin.size(), -2);
  // Kernel-vs-kernel comparison: the scalar side runs over pre-reversed
  // inputs so the timed loop is solveDistance alone — the batch solver's
  // direct reversed indexing is part of its kernel, the scalar path's
  // reversal copies are not part of this stat.
  std::vector<std::string> d_rev;
  d_rev.reserve(2 * dwin.size());
  for (const auto& wp : dwin) {
    d_rev.push_back(common::reversed(wp.text));
    d_rev.push_back(common::reversed(wp.pattern));
  }
  const util::Summary dscalar_pass = timePasses([&] {
    for (std::size_t i = 0; i < dwin.size(); ++i) {
      d_scalar[i] =
          solver.solveDistance(d_rev[2 * i], d_rev[2 * i + 1], dspec);
    }
  });
  simd::SimdBatchSolver batch_solver(isa);
  const util::Summary dbatch_pass = timePasses([&] {
    batch_solver.solveDistanceBatch(genasm::Anchor::StartOnly, dwin.data(),
                                    dwin.size(), d_batched.data());
  });
  if (d_scalar != d_batched) {
    std::fprintf(stderr, "batched distance kernel diverged from scalar\n");
    return 1;
  }
  const double dscalar_seconds = dscalar_pass.median();
  const double dbatch_seconds = dbatch_pass.median();
  const double dscalar_wps = perSec(dwin.size(), dscalar_seconds);
  const double dbatch_wps = perSec(dwin.size(), dbatch_seconds);
  const double dspeedup = dscalar_wps > 0 ? dbatch_wps / dscalar_wps : 0;
  std::printf("distance kernel (W=64, %zu windows, isa=%s, %d lanes, "
              "median of %d passes): scalar %.0f windows/s (IQR %.1f%%), "
              "batched %.0f windows/s (IQR %.1f%%) (%.2fx)\n",
              dwin.size(), std::string(simd::isaName(isa)).c_str(),
              batch_solver.lanes(), kKernelPasses, dscalar_wps,
              100.0 * iqr(dscalar_pass) / dscalar_seconds, dbatch_wps,
              100.0 * iqr(dbatch_pass) / dbatch_seconds, dspeedup);

  // --- alignment kernel: scalar solve (fill + traceback) vs the
  // lane-parallel alignBatch over the same W=64 window problems. The
  // per-level persisted rows make the batched fill heavier than the
  // distance kernel's two-row ping-pong, so this is tracked separately;
  // both paths must agree cigar for cigar.
  std::vector<genasm::WindowResult> a_scalar(dwin.size());
  std::vector<genasm::WindowResult> a_batched(dwin.size());
  const util::Summary ascalar_pass = timePasses([&] {
    for (std::size_t i = 0; i < dwin.size(); ++i) {
      a_scalar[i] = solver.solve(d_rev[2 * i], d_rev[2 * i + 1], dspec);
    }
  });
  simd::SimdBatchSolver align_solver(isa);
  const auto align_pass = [&] {
    align_solver.alignBatch(genasm::Anchor::StartOnly, dwin.data(),
                            dwin.size(), a_batched.data());
  };
  // One counted pass for the occupancy figures, then the timed passes.
  align_pass();
  const simd::BatchStats a_stats = align_solver.stats();
  const util::Summary abatch_pass = timePasses(align_pass);
  for (std::size_t i = 0; i < dwin.size(); ++i) {
    if (a_scalar[i].ok != a_batched[i].ok ||
        a_scalar[i].distance != a_batched[i].distance ||
        !(a_scalar[i].cigar == a_batched[i].cigar)) {
      std::fprintf(stderr, "batched align kernel diverged from scalar\n");
      return 1;
    }
  }
  // Padding the shape sort saves: one pass with sorting off gives the
  // pre-sort packed-word volume on the identical batch.
  simd::SimdBatchSolver align_unsorted(isa);
  align_unsorted.setShapeSort(false);
  align_unsorted.alignBatch(genasm::Anchor::StartOnly, dwin.data(),
                            dwin.size(), a_batched.data());
  const simd::BatchStats u_stats = align_unsorted.stats();
  const double ascalar_seconds = ascalar_pass.median();
  const double abatch_seconds = abatch_pass.median();
  const double ascalar_wps = perSec(dwin.size(), ascalar_seconds);
  const double abatch_wps = perSec(dwin.size(), abatch_seconds);
  const double aspeedup = ascalar_wps > 0 ? abatch_wps / ascalar_wps : 0;
  const double occupancy = ratio(a_stats.lanes_filled, a_stats.lane_slots);
  const double pack_sorted = ratio(a_stats.useful_words, a_stats.packed_words);
  const double pack_unsorted =
      ratio(u_stats.useful_words, u_stats.packed_words);
  std::printf("align kernel (W=64, %zu windows, isa=%s, %d lanes, "
              "median of %d passes): scalar %.0f windows/s (IQR %.1f%%), "
              "batched %.0f windows/s (IQR %.1f%%) (%.2fx)\n",
              dwin.size(), std::string(simd::isaName(isa)).c_str(),
              align_solver.lanes(), kKernelPasses, ascalar_wps,
              100.0 * iqr(ascalar_pass) / ascalar_seconds, abatch_wps,
              100.0 * iqr(abatch_pass) / abatch_seconds, aspeedup);
  std::printf("  lane occupancy %.4f (%llu/%llu), packing efficiency "
              "%.4f sorted vs %.4f unsorted\n",
              occupancy,
              static_cast<unsigned long long>(a_stats.lanes_filled),
              static_cast<unsigned long long>(a_stats.lane_slots),
              pack_sorted, pack_unsorted);

  // --- batched windowed march: steady-state allocation check over the
  // workload's full pairs (the path pipeline phase 2 runs). Once the
  // lane arenas and march scratch are warm, re-running the identical
  // request set must grow nothing — the batched twin of the scalar
  // steady_scratch_allocs figure above. The steady pass also gives the
  // level occupancy: the march hints each window with its request's
  // previous window distance, which the hint-less kernel pass above
  // cannot show.
  std::vector<core::BatchedAlignRequest> march_reqs;
  march_reqs.reserve(w.pairs.size());
  for (const auto& p : w.pairs) march_reqs.push_back({p.target, p.query});
  std::vector<common::AlignmentResult> march_res(march_reqs.size());
  core::WindowedBatchScratch march_scratch;
  core::alignWindowedBatch(align_solver, wcfg, march_reqs.data(),
                           march_reqs.size(), march_res.data(),
                           march_scratch);
  const std::uint64_t march_solver_warm = align_solver.scratchAllocs();
  const std::uint64_t march_scratch_warm = march_scratch.allocs();
  align_solver.resetStats();
  core::alignWindowedBatch(align_solver, wcfg, march_reqs.data(),
                           march_reqs.size(), march_res.data(),
                           march_scratch);
  const std::uint64_t march_steady_allocs =
      (align_solver.scratchAllocs() - march_solver_warm) +
      (march_scratch.allocs() - march_scratch_warm);
  const simd::BatchStats m_stats = align_solver.stats();
  const double level_occupancy =
      ratio(m_stats.levels_useful, m_stats.levels_issued);
  std::printf("  batched march steady-state scratch allocations: %llu "
              "(per window: %.4f — must be 0)\n",
              static_cast<unsigned long long>(march_steady_allocs),
              windows > 0
                  ? static_cast<double>(march_steady_allocs) / windows
                  : 0);
  std::printf("  batched march level occupancy %.4f (%llu/%llu useful "
              "lane-levels)\n",
              level_occupancy,
              static_cast<unsigned long long>(m_stats.levels_useful),
              static_cast<unsigned long long>(m_stats.levels_issued));

  // --- index build: serial vs per-contig-parallel over a contig table
  // (the tracked genome sliced into 8 contigs, the multi-contig shape
  // real references have).
  refmodel::Reference bench_ref;
  constexpr std::size_t kContigs = 8;
  const std::size_t slice = w.genome.size() / kContigs;
  for (std::size_t c = 0; c < kContigs; ++c) {
    const std::size_t begin = c * slice;
    const std::size_t len =
        c + 1 == kContigs ? w.genome.size() - begin : slice;
    std::string name = "bench_ctg_";
    name += std::to_string(c);
    bench_ref.addContig(std::move(name),
                        std::string_view(w.genome).substr(begin, len));
  }
  mapper::MinimizerIndex serial_index, parallel_index;
  util::Timer t_serial;
  serial_index.build(bench_ref, 15, 10, 64, nullptr);
  const double index_serial_seconds = t_serial.seconds();
  util::ThreadPool index_pool;  // hardware concurrency
  util::Timer t_parallel;
  parallel_index.build(bench_ref, 15, 10, 64, &index_pool);
  const double index_parallel_seconds = t_parallel.seconds();
  if (!(serial_index == parallel_index)) {
    std::fprintf(stderr, "parallel index build diverged from serial\n");
    return 1;
  }
  const double index_speedup =
      index_parallel_seconds > 0 ? index_serial_seconds / index_parallel_seconds
                                 : 0;
  std::printf("index build (%zu contigs, %zu minimizers): serial %.3fs, "
              "parallel %.3fs on %zu threads (%.2fx)\n",
              kContigs, serial_index.size(), index_serial_seconds,
              index_parallel_seconds, index_pool.size(), index_speedup);

  // --- index build, single-contig shape: the whole tracked genome as
  // one contig, split into overlapping extraction blocks so even a
  // single chromosome fans out (bit-identical to the monolithic build).
  refmodel::Reference single_ref;
  single_ref.addContig("bench_chr", w.genome);
  constexpr std::size_t kBenchBlockBp = 1u << 16;
  mapper::MinimizerIndex sc_mono, sc_serial, sc_parallel;
  sc_mono.build(single_ref, 15, 10, 64, nullptr, /*block_bp=*/0);
  util::Timer t_sc_serial;
  sc_serial.build(single_ref, 15, 10, 64, nullptr, kBenchBlockBp);
  const double sc_serial_seconds = t_sc_serial.seconds();
  util::Timer t_sc_parallel;
  sc_parallel.build(single_ref, 15, 10, 64, &index_pool, kBenchBlockBp);
  const double sc_parallel_seconds = t_sc_parallel.seconds();
  if (!(sc_mono == sc_serial) || !(sc_serial == sc_parallel)) {
    std::fprintf(stderr, "block-split index build diverged\n");
    return 1;
  }
  const double sc_speedup =
      sc_parallel_seconds > 0 ? sc_serial_seconds / sc_parallel_seconds : 0;
  const std::size_t sc_blocks =
      (w.genome.size() + kBenchBlockBp - 1) / kBenchBlockBp;
  std::printf("index build (1 contig, %zu blocks): serial %.3fs, parallel "
              "%.3fs on %zu threads (%.2fx)\n",
              sc_blocks, sc_serial_seconds, sc_parallel_seconds,
              index_pool.size(), sc_speedup);

  // --- index serve-from-disk: write the 8-contig tracked index as a
  // genasmx_index file, reopen it through MappedIndex, and compare the
  // mmap cold start against rebuilding from scratch — the tracked
  // number behind `genasmx_map --index=`. The loaded arrays must match
  // the in-memory index verbatim (the byte-identical-PAF substrate).
  const std::string index_path = "bench_pipeline.tmp.gxi";
  util::Timer t_iwrite;
  mapper::writeIndexFile(index_path, serial_index, bench_ref);
  const double index_write_seconds = t_iwrite.seconds();
  util::Timer t_iload;
  const mapper::MappedIndex mapped(index_path);
  const double index_load_seconds = t_iload.seconds();
  const std::size_t index_file_bytes = mapped.fileBytes();
  const mapper::IndexView& mv = mapped.view();
  bool same = mv.size() == serial_index.size() &&
              mv.k() == serial_index.k() && mv.w() == serial_index.w() &&
              mapped.reference().size() == bench_ref.size();
  for (std::size_t i = 0; same && i < mv.size(); ++i) {
    same = mv.keysData()[i] == serial_index.keys()[i] &&
           mv.valuesData()[i] == serial_index.values()[i];
  }
  std::remove(index_path.c_str());  // the mapping outlives the unlink
  if (!same) {
    std::fprintf(stderr, "mmap'd index diverged from the in-memory build\n");
    return 1;
  }
  const double index_load_speedup =
      index_load_seconds > 0 ? index_serial_seconds / index_load_seconds : 0;
  std::printf("index on disk (%zu bytes): write %.3fs, verified mmap load "
              "%.4fs vs %.3fs rebuild (%.0fx)\n",
              index_file_bytes, index_write_seconds, index_load_seconds,
              index_serial_seconds, index_load_speedup);

  // --- pipeline flows.
  const FlowTiming full = timeFlow(w.genome, reads, true);
  const FlowTiming two = timeFlow(w.genome, reads, false);
  const FlowTiming two_prefilter = timeFlow(
      w.genome, reads, false, pipeline::PrefilterMode::kSketch);
  const double speedup =
      two.seconds > 0 ? full.seconds / two.seconds : 0;
  const double pf_filtered_fraction =
      two_prefilter.prefilter.candidates_seen > 0
          ? static_cast<double>(two_prefilter.prefilter.candidates_filtered) /
                static_cast<double>(two_prefilter.prefilter.candidates_seen)
          : 0;
  const double pf_p1_speedup =
      two_prefilter.stages.phase1_distance_s > 0
          ? two.stages.phase1_distance_s /
                two_prefilter.stages.phase1_distance_s
          : 0;

  std::printf("\npipeline (1 thread, windowed-improved):\n");
  std::printf("  full flow (secondaries)        %8.3fs %10.1f reads/s  %zu records\n",
              full.seconds, full.reads_per_sec, full.records);
  std::printf("  primary-only, two-phase        %8.3fs %10.1f reads/s  %zu records\n",
              two.seconds, two.reads_per_sec, two.records);
  std::printf("  two-phase + sketch prefilter   %8.3fs %10.1f reads/s  %zu records\n",
              two_prefilter.seconds, two_prefilter.reads_per_sec,
              two_prefilter.records);
  std::printf("  two-phase speedup vs full      %8.2fx\n", speedup);
  std::printf("  prefilter: %llu/%llu non-best candidates dropped (%.1f%%), "
              "sketch %.3fs, phase-1 %.3fs -> %.3fs (%.2fx), steady grow "
              "events %llu (must be 0)\n",
              static_cast<unsigned long long>(
                  two_prefilter.prefilter.candidates_filtered),
              static_cast<unsigned long long>(
                  two_prefilter.prefilter.candidates_seen),
              100.0 * pf_filtered_fraction, two_prefilter.stages.sketch_s,
              two.stages.phase1_distance_s,
              two_prefilter.stages.phase1_distance_s, pf_p1_speedup,
              static_cast<unsigned long long>(
                  two_prefilter.prefilter_steady_grow_events));
  std::printf("  two-phase stage breakdown: seed+chain %.3fs, "
              "phase1-distance %.3fs, phase2-traceback %.3fs, output %.3fs\n",
              two.stages.seed_chain_s, two.stages.phase1_distance_s,
              two.stages.traceback_s, two.stages.output_s);
  std::printf("peak RSS: %.1f MiB\n",
              static_cast<double>(bench::peakRssBytes()) / (1024.0 * 1024.0));

  if (!cfg.json_path.empty()) {
    bench::JsonObject workload;
    workload.num("genome_bp", static_cast<std::uint64_t>(cfg.genome_len))
        .num("reads", static_cast<std::uint64_t>(cfg.read_count))
        .num("read_length_bp", static_cast<std::uint64_t>(cfg.read_length))
        .num("error_rate", cfg.error_rate)
        .num("seed", cfg.seed)
        .num("candidates", static_cast<std::uint64_t>(w.total_candidates))
        .num("pairs", static_cast<std::uint64_t>(w.pairs.size()));
    bench::JsonObject aligner;
    aligner.num("windows", static_cast<std::uint64_t>(steady.problems))
        .num("seconds", align_seconds)
        .num("windows_per_sec", windows_per_sec)
        .num("alignments_per_sec", aligns_per_sec)
        .num("total_cost", total_cost)
        .num("dp_loads", steady.dp_loads)
        .num("dp_stores", steady.dp_stores)
        .num("bytes_peak", steady.bytes_peak)
        .num("steady_scratch_allocs", steady.scratch_allocs)
        .num("steady_scratch_allocs_per_window",
             windows > 0
                 ? static_cast<double>(steady.scratch_allocs) / windows
                 : 0.0);
    auto flow = [](const FlowTiming& ft) {
      bench::JsonObject o;
      o.num("seconds", ft.seconds)
          .num("reads_per_sec", ft.reads_per_sec)
          .num("records", static_cast<std::uint64_t>(ft.records));
      return o;
    };
    bench::JsonObject index_build;
    index_build.num("contigs", static_cast<std::uint64_t>(kContigs))
        .num("minimizers", static_cast<std::uint64_t>(serial_index.size()))
        .num("serial_seconds", index_serial_seconds)
        .num("parallel_seconds", index_parallel_seconds)
        .num("pool_threads", static_cast<std::uint64_t>(index_pool.size()))
        .num("speedup_parallel_vs_serial", index_speedup);
    bench::JsonObject index_build_single_contig;
    index_build_single_contig
        .num("blocks", static_cast<std::uint64_t>(sc_blocks))
        .num("block_bp", static_cast<std::uint64_t>(kBenchBlockBp))
        .num("serial_seconds", sc_serial_seconds)
        .num("parallel_seconds", sc_parallel_seconds)
        .num("pool_threads", static_cast<std::uint64_t>(index_pool.size()))
        .num("speedup_parallel_vs_serial", sc_speedup);
    bench::JsonObject index_load;
    index_load
        .num("file_bytes", static_cast<std::uint64_t>(index_file_bytes))
        .num("write_seconds", index_write_seconds)
        .num("load_seconds", index_load_seconds)
        .num("build_seconds", index_serial_seconds)
        .num("speedup_load_vs_build", index_load_speedup);
    bench::JsonObject distance_kernel;
    distance_kernel.num("windows", static_cast<std::uint64_t>(dwin.size()))
        .num("window_bp", 64)
        .str("isa", std::string(simd::isaName(isa)))
        .num("lanes", batch_solver.lanes())
        .num("passes", kKernelPasses)
        .num("scalar_seconds", dscalar_seconds)
        .num("scalar_seconds_iqr", iqr(dscalar_pass))
        .num("batched_seconds", dbatch_seconds)
        .num("batched_seconds_iqr", iqr(dbatch_pass))
        .num("distance_scalar_windows_per_sec", dscalar_wps)
        .num("distance_batched_windows_per_sec", dbatch_wps)
        .num("speedup_batched_vs_scalar", dspeedup);
    bench::JsonObject align_kernel;
    align_kernel.num("windows", static_cast<std::uint64_t>(dwin.size()))
        .num("window_bp", 64)
        .str("isa", std::string(simd::isaName(isa)))
        .num("lanes", align_solver.lanes())
        .num("passes", kKernelPasses)
        .num("scalar_seconds", ascalar_seconds)
        .num("scalar_seconds_iqr", iqr(ascalar_pass))
        .num("batched_seconds", abatch_seconds)
        .num("batched_seconds_iqr", iqr(abatch_pass))
        .num("align_scalar_windows_per_sec", ascalar_wps)
        .num("align_batched_windows_per_sec", abatch_wps)
        .num("speedup_batched_vs_scalar", aspeedup)
        .num("lanes_total", a_stats.lane_slots)
        .num("lanes_filled", a_stats.lanes_filled)
        .num("lane_occupancy", occupancy)
        .num("packing_efficiency_sorted", pack_sorted)
        .num("packing_efficiency_unsorted", pack_unsorted)
        .num("levels_issued", m_stats.levels_issued)
        .num("levels_useful", m_stats.levels_useful)
        .num("level_occupancy", level_occupancy)
        .num("march_steady_scratch_allocs", march_steady_allocs)
        .num("march_steady_scratch_allocs_per_window",
             windows > 0
                 ? static_cast<double>(march_steady_allocs) / windows
                 : 0.0);
    bench::JsonObject stage_breakdown;
    stage_breakdown.num("index_build_seconds", two.stages.index_build_s)
        .num("seed_chain_seconds", two.stages.seed_chain_s)
        .num("phase1_distance_seconds", two.stages.phase1_distance_s)
        .num("phase2_traceback_seconds", two.stages.traceback_s)
        .num("output_seconds", two.stages.output_s);
    bench::JsonObject candidate_prefilter;
    candidate_prefilter
        .num("candidates_seen", two_prefilter.prefilter.candidates_seen)
        .num("candidates_filtered",
             two_prefilter.prefilter.candidates_filtered)
        .num("filtered_fraction", pf_filtered_fraction)
        .num("reads_sketched", two_prefilter.prefilter.reads_sketched)
        .num("windows_sketched", two_prefilter.prefilter.windows_sketched)
        .num("sketch_seconds", two_prefilter.stages.sketch_s)
        .num("phase1_seconds_off", two.stages.phase1_distance_s)
        .num("phase1_seconds_on", two_prefilter.stages.phase1_distance_s)
        .num("speedup_phase1_on_vs_off", pf_p1_speedup)
        .num("reads_per_sec_off", two.reads_per_sec)
        .num("reads_per_sec_on", two_prefilter.reads_per_sec)
        .num("reads_per_sec_delta",
             two_prefilter.reads_per_sec - two.reads_per_sec)
        .num("steady_grow_events",
             two_prefilter.prefilter_steady_grow_events);
    bench::JsonObject root;
    root.str("bench", "pipeline")
        .str("mode", "quick")
        .str("backend", "windowed-improved")
        .num("threads", 1)
        .num("host_cores",
             static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
        .str("simd_isa", std::string(simd::isaName(isa)))
        .obj("workload", workload)
        .obj("aligner", aligner)
        .obj("distance_kernel", distance_kernel)
        .obj("align_kernel", align_kernel)
        .obj("index_build", index_build)
        .obj("index_build_single_contig", index_build_single_contig)
        .obj("index_load", index_load)
        .obj("pipeline_full", flow(full))
        .obj("pipeline_primary_two_phase", flow(two))
        .obj("pipeline_primary_two_phase_prefilter", flow(two_prefilter))
        .obj("stage_breakdown", stage_breakdown)
        .obj("candidate_prefilter", candidate_prefilter)
        .num("speedup_two_phase_vs_full", speedup)
        .num("peak_rss_bytes", bench::peakRssBytes());
    if (!root.writeFile(cfg.json_path)) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   cfg.json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", cfg.json_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto cfg = bench::WorkloadConfig::fromArgs(argc, argv);
  if (cfg.quick) return runTracked(cfg);
  if (!cfg.json_path.empty()) {
    // The tracked JSON is only meaningful on the fixed quick workload;
    // refusing beats silently recording numbers for a different scale.
    std::fprintf(stderr,
                 "error: --json requires --quick (the tracked workload)\n");
    return 2;
  }

  bench::printHeader("E6: end-to-end pipeline (bench_pipeline)",
                     "500 x 10kb PBSIM2 reads -> minimap2 -P chains "
                     "(138,929 candidates) -> alignment");

  util::Timer timer;
  readsim::GenomeConfig gcfg;
  gcfg.length = cfg.genome_len;
  gcfg.seed = cfg.seed;
  const auto genome = readsim::generateGenome(gcfg);
  const double t_genome = timer.seconds();

  timer.reset();
  auto rcfg = readsim::ReadSimConfig::pacbioClr(cfg.read_count, cfg.read_length);
  rcfg.seed = cfg.seed + 1;
  const auto reads = readsim::simulateReads(genome, rcfg);
  const double t_reads = timer.seconds();

  timer.reset();
  mapper::Mapper mapper{std::string(genome)};
  const double t_index = timer.seconds();

  timer.reset();
  std::size_t total_candidates = 0;
  util::Summary cands_per_read;
  std::vector<mapper::AlignmentPair> pairs;
  for (const auto& r : reads) {
    const auto cands = mapper.map(r.seq);
    total_candidates += cands.size();
    cands_per_read.add(static_cast<double>(cands.size()));
    auto rp = mapper::buildAlignmentPairs(mapper, r.seq,
                                          cfg.max_candidates_per_read);
    for (auto& p : rp) pairs.push_back(std::move(p));
  }
  const double t_map = timer.seconds();

  timer.reset();
  std::uint64_t total_cost = 0;
  util::Summary cost_per_pair;
  const auto aligner = engine::makeAligner("windowed-improved");
  for (const auto& p : pairs) {
    const auto res = aligner->align(p.target, p.query);
    total_cost += static_cast<std::uint64_t>(res.edit_distance);
    cost_per_pair.add(res.edit_distance);
  }
  const double t_align = timer.seconds();

  std::printf("stage timings:\n");
  std::printf("  genome generation (%zu bp)     %8.2fs\n", genome.size(),
              t_genome);
  std::printf("  read simulation  (%zu reads)    %8.2fs\n", reads.size(),
              t_reads);
  std::printf("  index build      (k=15, w=10)  %8.2fs\n", t_index);
  std::printf("  mapping/chaining (-P, all)     %8.2fs\n", t_map);
  std::printf("  alignment (improved GenASM)    %8.2fs\n", t_align);
  std::printf("\ncandidates: total=%zu  per-read %s\n", total_candidates,
              cands_per_read.str().c_str());
  std::printf("aligned pairs: %zu (capped at %zu per read)\n", pairs.size(),
              cfg.max_candidates_per_read);
  std::printf("alignment cost per pair: %s\n", cost_per_pair.str().c_str());
  std::printf("alignment throughput: %.1f pairs/s (single thread)\n",
              static_cast<double>(pairs.size()) / t_align);
  std::printf(
      "\nPaper reference point: 500 reads x 10 kb -> 138,929 candidates "
      "(~278/read with -P on the human genome).\nSynthetic genomes are far "
      "less repetitive than the human genome, so per-read candidate counts "
      "are lower here; raise GenomeConfig::repeat_fraction to push the "
      "multiplicity up.\n");
  return 0;
}
