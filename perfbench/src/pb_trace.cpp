// pb_trace — the traced run: calls each layer's public functions from the
// benchmark's own code, records spans and counts around those calls, and
// derives the per-layer metrics from them.
//
//   pb_trace --workload NAME --index ref.gxi --reads reads.fq
//            --paf-out traced.paf --trace-out trace.json --work DIR
//            --rate REQ_PER_S
//
// Layers, outermost first: server (MapSession::mapGroup, and an
// in-process MapServer on a Unix socket driven by the open-loop
// generator), pipeline (MappingPipeline::mapBatch at 1 thread and at
// nproc), mapper (extractMinimizers, IndexView::lookup, chainAnchors,
// Mapper::map, index build and load), sketch, engine (AlignmentEngine
// batch entries) with the simd/core kernels beneath, and io
// (FastxReader, PafWriter).
//
// The 1-thread pipeline pass writes --paf-out, which must be
// byte-identical to genasmx_map's nproc output. The trace is written
// once, at the end, to --trace-out. The last stdout line is one JSON
// object: {"clean": bool, "metrics": {name: value, ...}}.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc_count.hpp"
#include "cli.hpp"
#include "common.hpp"
#include "genasmx/common/sequence.hpp"
#include "genasmx/core/windowed.hpp"
#include "genasmx/engine/engine.hpp"
#include "genasmx/io/fastx.hpp"
#include "genasmx/io/paf.hpp"
#include "genasmx/mapper/chain.hpp"
#include "genasmx/mapper/index.hpp"
#include "genasmx/mapper/index_io.hpp"
#include "genasmx/mapper/minimizer.hpp"
#include "genasmx/pipeline/pipeline.hpp"
#include "genasmx/server/client.hpp"
#include "genasmx/server/server.hpp"
#include "genasmx/server/session.hpp"
#include "genasmx/simd/batch_solver.hpp"
#include "genasmx/sketch/sketch.hpp"
#include "genasmx/util/mem_stats.hpp"
#include "genasmx/util/thread_pool.hpp"
#include "loadgen.hpp"
#include "trace.hpp"

namespace {

using namespace gx;
using pb::ScopedSpan;
using pb::Tracer;
using Clock = std::chrono::steady_clock;

/// Reads in the mapper/engine/sketch sample, and per pipeline batch.
constexpr std::size_t kSampleReads = 8192;
constexpr std::size_t kBatchReads = 256;
/// Engine tasks aligned from the sample; tasks whose windows feed the
/// MemStats counts; tasks in the lane-occupancy run.
constexpr std::size_t kMaxAlignTasks = 4096;
constexpr std::size_t kMemStatsTasks = 32;
constexpr std::size_t kSimdTasks = 256;
/// Server service-time sample: at most this many requests / read bases.
constexpr std::size_t kGroupRequests = 500;
constexpr std::size_t kGroupBases = 2'000'000;
/// Repeats of the index build/load, and the nproc pipeline time budget.
constexpr int kSetupRepeats = 3;
constexpr double kPipelineSeconds = 2.0;
constexpr double kServerSeconds = 1.5;

double secondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double median(std::vector<double> v) {
  return pb::percentile(std::move(v), 0.5);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

class Metrics {
 public:
  void add(std::string name, double value) {
    values_.emplace_back(std::move(name), value);
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < values_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.9g", values_[i].second);
      out += (i != 0 ? ", \"" : "\"") + values_[i].first + "\": " + buf;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, double>> values_;
};

std::string stageArgs(const pipeline::StageTimes& d) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"seed_chain_s\": %.6f, \"phase1_s\": %.6f, \"sketch_s\": "
                "%.6f, \"traceback_s\": %.6f, \"output_s\": %.6f",
                d.seed_chain_s, d.phase1_distance_s, d.sketch_s,
                d.traceback_s, d.output_s);
  return buf;
}

/// The number after `"key": ` following `"section"` in a JSON text.
double jsonNumber(const std::string& json, const std::string& section,
                  const std::string& key) {
  std::size_t at = json.find("\"" + section + "\"");
  if (at != std::string::npos) at = json.find("\"" + key + "\":", at);
  if (at == std::string::npos) {
    throw std::runtime_error("STATS reply lacks " + section + "." + key);
  }
  return std::stod(json.substr(at + key.size() + 3));
}

/// Shared state of one traced run.
struct Run {
  Tracer tracer;
  Metrics m;
  pb::Flow flow;
  std::size_t nproc = 1;
  bool clean = true;
};

// ---------------------------------------------------------------- setup

/// mapper.index_build_s / mapper.index_load_s: MinimizerIndex::build on
/// an nproc pool, and MappedIndex open + payload verification.
std::unique_ptr<mapper::MappedIndex> setupLayer(Run& run,
                                                const std::string& path) {
  std::vector<double> load_s, build_s;
  std::unique_ptr<mapper::MappedIndex> index;
  for (int i = 0; i < kSetupRepeats; ++i) {
    index.reset();
    ScopedSpan span(run.tracer, "mapper.index_load", i);
    const auto t = Clock::now();
    index = std::make_unique<mapper::MappedIndex>(path);
    load_s.push_back(secondsSince(t));
  }
  const mapper::IndexView& view = index->view();
  util::ThreadPool pool(run.nproc);
  for (int i = 0; i < kSetupRepeats; ++i) {
    ScopedSpan span(run.tracer, "mapper.index_build", i);
    const auto t = Clock::now();
    mapper::MinimizerIndex built;
    built.build(view.reference(), view.k(), view.w(), view.maxOcc(), &pool);
    build_s.push_back(secondsSince(t));
    if (built.size() != view.size()) {
      throw std::runtime_error("rebuilt index differs from the index file");
    }
  }
  run.m.add("mapper.index_build_s", median(build_s));
  run.m.add("mapper.index_load_s", median(load_s));
  return index;
}

// ------------------------------------------------------------------- io

std::vector<io::FastxRecord> parseLayer(Run& run, const std::string& path) {
  ScopedSpan span(run.tracer, "io.parse");
  const auto t = Clock::now();
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  io::FastxReader reader(in);
  std::vector<io::FastxRecord> reads;
  io::FastxRecord rec;
  while (reader.next(rec)) reads.push_back(rec);
  const double s = secondsSince(t);
  in.clear();
  in.seekg(0, std::ios::end);
  const double mb = static_cast<double>(in.tellg()) / 1e6;
  run.m.add("io.parse_s", s);
  run.m.add("io.parse_mb_per_s", ratio(mb, s));
  return reads;
}

// ------------------------------------------------------------- pipeline

/// Map every read in kBatchReads batches; returns mapBatch seconds and
/// appends each batch's wall time.
double pipelinePass(Run& run, pipeline::MappingPipeline& pipe,
                    const std::vector<io::FastxRecord>& reads,
                    const char* span_name, std::vector<double>& batch_ms,
                    io::PafWriter* writer, double& write_s) {
  ScopedSpan pass(run.tracer, std::string(span_name) + ".pass");
  double map_s = 0;
  std::vector<io::FastxRecord> batch;
  for (std::size_t b = 0; b * kBatchReads < reads.size(); ++b) {
    const std::size_t lo = b * kBatchReads;
    const std::size_t hi = std::min(reads.size(), lo + kBatchReads);
    batch.assign(reads.begin() + static_cast<std::ptrdiff_t>(lo),
                 reads.begin() + static_cast<std::ptrdiff_t>(hi));
    std::vector<io::PafRecord> recs;
    {
      ScopedSpan span(run.tracer, span_name, b);
      const pipeline::StageTimes before = pipe.stageTimes();
      const auto t = Clock::now();
      recs = pipe.mapBatch(batch);
      const double s = secondsSince(t);
      map_s += s;
      batch_ms.push_back(s * 1e3);
      span.setArgs(stageArgs(pipe.stageTimes() - before));
    }
    if (writer != nullptr) {
      ScopedSpan span(run.tracer, "io.paf_write", b);
      const auto t = Clock::now();
      for (const auto& r : recs) writer->write(r);
      write_s += secondsSince(t);
    }
  }
  return map_s;
}

void pipelineLayer(Run& run, const mapper::IndexView& view,
                   const std::vector<io::FastxRecord>& reads,
                   const std::string& paf_path) {
  // 1 thread: the PAF the nproc genasmx_map output is compared with.
  auto one = std::make_unique<pipeline::MappingPipeline>(
      view, pb::pipelineConfig(run.flow, 1));
  std::ofstream paf(paf_path, std::ios::binary);
  double write_s = 0;
  double one_s = 0;
  std::vector<double> one_batch_ms;
  {
    io::PafWriter writer(paf);
    one_s = pipelinePass(run, *one, reads, "pipeline.mapBatch.1t",
                         one_batch_ms, &writer, write_s);
    ScopedSpan span(run.tracer, "io.paf_write");
    const auto t = Clock::now();
    writer.close();
    write_s += secondsSince(t);
  }
  paf.close();
  if (!paf) throw std::runtime_error("cannot write " + paf_path);
  const pipeline::StageTimes& st = one->stageTimes();
  const pipeline::RunReport& rr = one->report();
  run.clean = run.clean && rr.clean();
  const pipeline::PrefilterStats& pf = one->prefilterStats();
  run.m.add("pipeline.seed_chain_s", st.seed_chain_s);
  run.m.add("pipeline.phase1_s", st.phase1_distance_s);
  run.m.add("pipeline.traceback_s", st.traceback_s);
  run.m.add("pipeline.output_s", st.output_s);
  run.m.add("pipeline.sketch_s", st.sketch_s);
  run.m.add("sketch.filtered_frac",
            ratio(static_cast<double>(pf.candidates_filtered),
                  static_cast<double>(pf.candidates_seen)));
  run.m.add("io.paf_write_s", write_s);
  one.reset();

  // nproc: setup time, batch latency, and thread scaling. The traced
  // and untraced passes alternate so the instrumentation cost shows.
  std::unique_ptr<pipeline::MappingPipeline> pipe;
  {
    ScopedSpan span(run.tracer, "pipeline.setup");
    const auto t = Clock::now();
    pipe = std::make_unique<pipeline::MappingPipeline>(
        view, pb::pipelineConfig(run.flow, run.nproc));
    run.m.add("pipeline.setup_s", secondsSince(t));
  }
  std::vector<double> batch_ms, untraced_ms, traced_s, untraced_s;
  const auto start = Clock::now();
  double unused = 0;
  while (traced_s.empty() || secondsSince(start) < kPipelineSeconds) {
    run.tracer.setEnabled(false);
    untraced_s.push_back(pipelinePass(run, *pipe, reads, "pipeline.mapBatch",
                                      untraced_ms, nullptr, unused));
    run.tracer.setEnabled(true);
    traced_s.push_back(pipelinePass(run, *pipe, reads, "pipeline.mapBatch",
                                    batch_ms, nullptr, unused));
  }
  run.clean = run.clean && pipe->report().clean();
  run.m.add("pipeline.batch_ms_p50", pb::percentile(batch_ms, 0.50));
  run.m.add("pipeline.batch_ms_p99", pb::percentile(batch_ms, 0.99));
  run.m.add("pipeline.thread_speedup", ratio(one_s, median(traced_s)));
  run.m.add("trace.overhead_frac",
            ratio(median(traced_s), median(untraced_s)) - 1.0);
}

// --------------------------------------------------------------- mapper

/// The sampled reads with their seeding products.
struct Sample {
  std::vector<const io::FastxRecord*> reads;
  std::vector<std::vector<mapper::Minimizer>> mins;
  std::vector<std::vector<mapper::Candidate>> candidates;
};

/// Mapper::map staged by hand (extract, lookup, chain), then Mapper::map
/// itself, over kBatchReads chunks of the sample.
Sample mapperLayer(Run& run, const mapper::Mapper& mapper,
                   const std::vector<io::FastxRecord>& reads) {
  Sample s;
  const std::size_t n = std::min(reads.size(), kSampleReads);
  for (std::size_t i = 0; i < n; ++i) s.reads.push_back(&reads[i]);
  s.mins.resize(n);
  s.candidates.resize(n);
  const mapper::IndexView& view = mapper.index();
  const refmodel::Reference& ref = view.reference();
  const auto k = static_cast<std::uint32_t>(view.k());
  mapper::MinimizerScratch scratch;
  std::vector<std::vector<mapper::Anchor>> fwd(kBatchReads), rev(kBatchReads);
  double extract_s = 0, lookup_s = 0, chain_s = 0, map_s = 0;
  std::uint64_t minimizers = 0, hits = 0, candidates = 0, allocs = 0;
  for (std::size_t lo = 0, b = 0; lo < n; lo += kBatchReads, ++b) {
    const std::size_t hi = std::min(n, lo + kBatchReads);
    auto t = Clock::now();
    {
      ScopedSpan span(run.tracer, "mapper.extract", b);
      for (std::size_t i = lo; i < hi; ++i) {
        mapper::extractMinimizers(s.reads[i]->seq, view.k(), view.w(), 0,
                                  s.mins[i], scratch);
        minimizers += s.mins[i].size();
      }
    }
    extract_s += secondsSince(t);
    t = Clock::now();
    {
      ScopedSpan span(run.tracer, "mapper.lookup", b);
      for (std::size_t i = lo; i < hi; ++i) {
        auto& f = fwd[i - lo];
        auto& r = rev[i - lo];
        f.clear();
        r.clear();
        const auto rl = static_cast<std::uint32_t>(s.reads[i]->seq.size());
        for (const auto& mz : s.mins[i]) {
          for (const auto& hit : view.lookup(mz.key)) {
            const std::uint32_t contig = ref.contigOf(hit.pos);
            if (hit.reverse == mz.reverse) {
              f.push_back(mapper::Anchor{mz.pos, hit.pos, contig});
            } else {
              r.push_back(mapper::Anchor{rl - mz.pos - k, hit.pos, contig});
            }
            ++hits;
          }
        }
      }
    }
    lookup_s += secondsSince(t);
    t = Clock::now();
    {
      ScopedSpan span(run.tracer, "mapper.chain", b);
      for (std::size_t i = lo; i < hi; ++i) {
        const auto& params = mapper.config().chain;
        (void)mapper::chainAnchors(std::move(fwd[i - lo]), params);
        (void)mapper::chainAnchors(std::move(rev[i - lo]), params);
      }
    }
    chain_s += secondsSince(t);
    t = Clock::now();
    {
      ScopedSpan span(run.tracer, "mapper.map", b);
      const std::uint64_t a0 = pb::allocCount();
      for (std::size_t i = lo; i < hi; ++i) {
        s.candidates[i] = mapper.map(s.reads[i]->seq);
      }
      allocs += pb::allocCount() - a0;
    }
    map_s += secondsSince(t);
    for (std::size_t i = lo; i < hi; ++i) candidates += s.candidates[i].size();
  }
  const auto nreads = static_cast<double>(n);
  run.m.add("mapper.map_us_per_read", ratio(map_s * 1e6, nreads));
  run.m.add("mapper.extract_us_per_read", ratio(extract_s * 1e6, nreads));
  run.m.add("mapper.lookup_us_per_read", ratio(lookup_s * 1e6, nreads));
  run.m.add("mapper.chain_us_per_read", ratio(chain_s * 1e6, nreads));
  run.m.add("mapper.minimizers_per_read",
            ratio(static_cast<double>(minimizers), nreads));
  run.m.add("mapper.hits_per_read", ratio(static_cast<double>(hits), nreads));
  run.m.add("mapper.candidates_per_read",
            ratio(static_cast<double>(candidates), nreads));
  run.m.add("mapper.allocs_per_read",
            ratio(static_cast<double>(allocs), nreads));
  return s;
}

// --------------------------------------------------------------- engine

struct Tasks {
  std::vector<std::string> oriented;  ///< reverse-complemented reads
  std::vector<engine::AlignmentTask> align;
  std::vector<std::size_t> read_of;   ///< sample read index per task
  std::vector<bool> chain_best;
};

/// The top max_candidates windows of each sampled read, as the pipeline
/// dispatches them.
Tasks buildTasks(const Sample& s, const mapper::Mapper& mapper,
                 std::size_t max_candidates) {
  Tasks t;
  t.oriented.resize(s.reads.size());
  for (std::size_t i = 0; i < s.reads.size(); ++i) {
    const auto& cands = s.candidates[i];
    const std::size_t n = std::min(cands.size(), max_candidates);
    for (std::size_t c = 0; c < n; ++c) {
      if (cands[c].reverse && t.oriented[i].empty()) {
        t.oriented[i] = common::reverseComplement(s.reads[i]->seq);
      }
    }
  }
  for (std::size_t i = 0; i < s.reads.size(); ++i) {
    const auto& cands = s.candidates[i];
    const std::size_t n = std::min(cands.size(), max_candidates);
    for (std::size_t c = 0; c < n && t.align.size() < kMaxAlignTasks; ++c) {
      const std::string_view query = cands[c].reverse
                                         ? std::string_view(t.oriented[i])
                                         : std::string_view(s.reads[i]->seq);
      t.align.push_back({mapper.candidateText(cands[c]), query});
      t.read_of.push_back(i);
      t.chain_best.push_back(c == 0);
    }
  }
  return t;
}

void engineLayer(Run& run, const Tasks& t) {
  engine::AlignmentEngine eng(pb::pipelineConfig(run.flow, run.nproc).engine);
  double bases = 0;
  for (const auto& task : t.align) {
    bases += static_cast<double>(task.query.size());
  }

  // alignBatch over every task, in engine batches of kBatchReads tasks.
  auto start = Clock::now();
  for (std::size_t lo = 0, b = 0; lo < t.align.size(); lo += kBatchReads, ++b) {
    ScopedSpan span(run.tracer, "engine.alignBatch", b);
    const std::vector<engine::AlignmentTask> chunk(
        t.align.begin() + static_cast<std::ptrdiff_t>(lo),
        t.align.begin() + static_cast<std::ptrdiff_t>(
                              std::min(t.align.size(), lo + kBatchReads)));
    (void)eng.alignBatch(chunk);
  }
  const double align_s = secondsSince(start);

  // distanceBatch: chain-best windows uncapped, then the others capped
  // at twice their read's chain-best distance.
  std::vector<engine::DistanceTask> best, rest;
  std::vector<std::size_t> best_of_read(t.oriented.size(), 0);
  for (std::size_t i = 0; i < t.align.size(); ++i) {
    if (t.chain_best[i]) {
      best_of_read[t.read_of[i]] = best.size();
      best.push_back({t.align[i].target, t.align[i].query, -1});
    }
  }
  std::uint64_t capped = 0;
  start = Clock::now();
  std::vector<int> best_d;
  {
    ScopedSpan span(run.tracer, "engine.distanceBatch", 0);
    best_d = eng.distanceBatch(best);
  }
  for (std::size_t i = 0; i < t.align.size(); ++i) {
    if (t.chain_best[i]) continue;
    const int d = best_d[best_of_read[t.read_of[i]]];
    rest.push_back({t.align[i].target, t.align[i].query, d < 0 ? -1 : 2 * d});
  }
  {
    ScopedSpan span(run.tracer, "engine.distanceBatch", 1);
    for (const int d : eng.distanceBatch(rest)) capped += d < 0;
  }
  for (const int d : best_d) capped += d < 0;
  const double distance_s = secondsSince(start);

  // Steady-state allocations: a leased aligner over a reused results
  // arena, second pass over the same chunk.
  std::uint64_t allocs = 0;
  const std::size_t n = std::min<std::size_t>(t.align.size(), kBatchReads);
  {
    engine::AlignmentEngine::AlignerLease lease(eng);
    std::vector<common::AlignmentResult> results(n);
    std::vector<engine::DistanceTask> dtasks;
    for (std::size_t i = 0; i < n; ++i) {
      dtasks.push_back({t.align[i].target, t.align[i].query, -1});
    }
    std::vector<int> dist(n);
    for (int pass = 0; pass < 2; ++pass) {
      const std::uint64_t a0 = pb::allocCount();
      lease->alignBatch(t.align.data(), n, results.data());
      lease->distanceBatch(dtasks.data(), n, dist.data());
      if (pass == 1) allocs = pb::allocCount() - a0;
    }
  }
  const double tasks = static_cast<double>(t.align.size());
  run.m.add("engine.align_mbases_per_s", ratio(bases / 1e6, align_s));
  run.m.add("engine.align_tasks", tasks);
  run.m.add("engine.distance_mbases_per_s", ratio(bases / 1e6, distance_s));
  run.m.add("engine.distance_tasks", tasks);
  run.m.add("engine.distance_capped_frac",
            ratio(static_cast<double>(capped), tasks));
  run.m.add("engine.allocs_per_task",
            ratio(static_cast<double>(allocs), 2.0 * static_cast<double>(n)));
  run.m.add("engine.task_failures", static_cast<double>(eng.taskFailures()));
  run.m.add("engine.batch_faults", static_cast<double>(eng.batchFaults()));
}

// ------------------------------------------------------------ core/simd

void kernelLayer(Run& run, const Tasks& t) {
  const core::WindowConfig wcfg =
      pb::pipelineConfig(run.flow, 1).engine.aligner.window;
  util::MemStats stats;
  {
    ScopedSpan span(run.tracer, "core.alignWindowedImproved");
    for (std::size_t i = 0; i < std::min(t.align.size(), kMemStatsTasks); ++i) {
      (void)core::alignWindowedImproved(t.align[i].target, t.align[i].query,
                                        wcfg, core::ImprovedOptions{}, &stats);
    }
  }
  const double windows = static_cast<double>(stats.problems);
  run.m.add("core.dp_bytes_per_window",
            ratio(static_cast<double>(stats.bytes_allocated), windows));
  run.m.add("core.dp_accesses_per_window",
            ratio(static_cast<double>(stats.accesses()), windows));

  simd::SimdBatchSolver solver;
  std::vector<core::BatchedAlignRequest> reqs;
  for (std::size_t i = 0; i < std::min(t.align.size(), kSimdTasks); ++i) {
    reqs.push_back({t.align[i].target, t.align[i].query});
  }
  std::vector<common::AlignmentResult> results(reqs.size());
  {
    ScopedSpan span(run.tracer, "simd.alignWindowedBatch");
    core::alignWindowedBatch(solver, wcfg, reqs.data(), reqs.size(),
                             results.data());
  }
  const simd::BatchStats& bs = solver.stats();
  run.m.add("simd.lane_occupancy",
            ratio(static_cast<double>(bs.lanes_filled),
                  static_cast<double>(bs.lane_slots)));
}

// --------------------------------------------------------------- sketch

void sketchLayer(Run& run, const Sample& s, const Tasks& t,
                 const mapper::IndexView& view) {
  const sketch::SketchParams params =
      pb::pipelineConfig(run.flow, 1).prefilter.sketch;
  sketch::SketchScratch scratch;
  sketch::SequenceSketch out;
  auto start = Clock::now();
  {
    ScopedSpan span(run.tracer, "sketch.sketchMinimizers");
    for (const auto& mins : s.mins) {
      sketch::sketchMinimizers(mins.data(), mins.size(), params, scratch, out);
    }
  }
  run.m.add("sketch.read_us", ratio(secondsSince(start) * 1e6,
                                    static_cast<double>(s.mins.size())));
  start = Clock::now();
  {
    ScopedSpan span(run.tracer, "sketch.sketchWindow");
    for (const auto& task : t.align) {
      sketch::sketchWindow(task.target, view.k(), view.w(), params, scratch,
                           out);
    }
  }
  run.m.add("sketch.window_us", ratio(secondsSince(start) * 1e6,
                                      static_cast<double>(t.align.size())));
}

// --------------------------------------------------------------- server

void serverLayer(Run& run, const mapper::IndexView& view,
                 const std::vector<io::FastxRecord>& reads,
                 const std::string& work_dir, double rate) {
  const pipeline::PipelineConfig cfg = pb::pipelineConfig(run.flow, run.nproc);
  const auto requests = pb::buildRequests(reads, 7);

  // MapSession::mapGroup in-process: service time, no socket, no queue.
  {
    engine::AlignmentEngine eng(cfg.engine);
    server::MapSession session(view, eng, cfg);
    std::vector<double> group_ms;
    std::vector<server::RequestResult> results;
    std::size_t bases = 0;
    for (std::size_t i = 0; i < requests.size() && i < kGroupRequests &&
                            bases < kGroupBases;
         ++i) {
      bases += requests[i].payload.size() / 2;
      const std::vector<std::string_view> group{requests[i].payload};
      ScopedSpan span(run.tracer, "server.mapGroup", i);
      const auto t = Clock::now();
      session.mapGroup(group, pipeline::Cancellation{}, results);
      group_ms.push_back(secondsSince(t) * 1e3);
      run.clean = run.clean && results[0].status.ok();
    }
    run.m.add("server.map_group_ms_p50", pb::percentile(group_ms, 0.50));
    run.m.add("server.map_group_ms_p99", pb::percentile(group_ms, 0.99));
  }

  // An in-process MapServer under the open-loop generator.
  server::ServerConfig scfg;
  scfg.unix_path = work_dir + "/trace.sock";
  scfg.pipeline = cfg;
  scfg.pipeline.on_bad_record = io::OnBadRecord::kSkip;  // genasmx_mapd's
  server::MapServer srv(view, scfg);
  srv.start();
  std::exception_ptr serve_error;
  std::thread serve_thread([&] {
    try {
      srv.serve();
    } catch (...) {
      serve_error = std::current_exception();
    }
  });
  std::string stats_json;
  pb::LoadResult load;
  try {
    pb::LoadConfig lc;
    lc.unix_path = scfg.unix_path;
    lc.connections = run.nproc;
    lc.open_seconds = kServerSeconds;
    lc.open_rate = rate;
    lc.seed = 11;
    load = pb::runLoad(lc, requests, [&](const pb::Completion& c) {
      run.tracer.async("server.request", c.tag, c.scheduled, c.replied,
                       "\"ok\": " + std::string(c.header->ok ? "1" : "0"));
    });
    server::MapClient client;
    auto st = client.connectUnix(scfg.unix_path);
    if (st.ok()) st = client.stats(stats_json);
    if (!st.ok()) throw std::runtime_error("STATS: " + st.message());
  } catch (...) {
    srv.requestDrain();
    serve_thread.join();
    throw;
  }
  srv.requestDrain();
  serve_thread.join();
  if (serve_error) std::rethrow_exception(serve_error);
  run.m.add("server.server_latency_p50_ms",
            jsonNumber(stats_json, "latency_usec", "p50") / 1e3);
  run.m.add("server.server_latency_p99_ms",
            jsonNumber(stats_json, "latency_usec", "p99") / 1e3);
  run.m.add("server.shed_queue_full",
            jsonNumber(stats_json, "requests", "shed_queue_full"));
  run.m.add("server.shed_deadline",
            jsonNumber(stats_json, "requests", "shed_deadline"));
  run.m.add("loadgen.lag_ms_p99", pb::percentile(load.open.lag_ms, 0.99));
  run.clean = run.clean && load.open.failed == 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, index_path, reads_path, paf_path, trace_path, work;
  double rate = 0;
  cli::Parser parser;
  parser.option("--workload", workload);
  parser.option("--index", index_path);
  parser.option("--reads", reads_path);
  parser.option("--paf-out", paf_path);
  parser.option("--trace-out", trace_path);
  parser.option("--work", work);
  parser.option("--rate", rate);
  if (!parser.parse(argc, argv) || workload.empty() || index_path.empty() ||
      reads_path.empty() || paf_path.empty() || trace_path.empty() ||
      work.empty() || rate <= 0) {
    std::fprintf(stderr,
                 "usage: pb_trace --workload NAME --index ref.gxi --reads "
                 "reads.fq --paf-out FILE --trace-out FILE --work DIR "
                 "--rate REQ_PER_S\n");
    return 2;
  }
  try {
    Run run;
    run.flow = pb::flowFor(workload);
    run.nproc = std::max(1u, std::thread::hardware_concurrency());

    // One top-level span per layer section; its self time is the glue
    // outside the layer calls.
    auto section = [&](const char* name, const auto& fn) {
      ScopedSpan span(run.tracer, name);
      return fn();
    };
    const auto index =
        section("run.setup", [&] { return setupLayer(run, index_path); });
    const mapper::IndexView& view = index->view();
    const auto reads =
        section("run.io", [&] { return parseLayer(run, reads_path); });
    section("run.pipeline",
            [&] { pipelineLayer(run, view, reads, paf_path); });
    const pipeline::PipelineConfig cfg = pb::pipelineConfig(run.flow, 1);
    const mapper::Mapper mapper(view, cfg.mapper);
    const Sample sample =
        section("run.mapper", [&] { return mapperLayer(run, mapper, reads); });
    const Tasks tasks = buildTasks(sample, mapper, cfg.max_candidates);
    section("run.engine", [&] { engineLayer(run, tasks); });
    section("run.kernels", [&] { kernelLayer(run, tasks); });
    section("run.sketch", [&] { sketchLayer(run, sample, tasks, view); });
    section("run.server",
            [&] { serverLayer(run, view, reads, work, rate); });

    if (!run.tracer.writeChromeTrace(trace_path)) {
      throw std::runtime_error("cannot write " + trace_path);
    }
    std::printf("{\"clean\": %s, \"metrics\": %s}\n",
                run.clean ? "true" : "false", run.m.json().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pb_trace: %s\n", e.what());
    return 1;
  }
  return 0;
}
