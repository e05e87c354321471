#include "genasmx/pipeline/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <istream>
#include <limits>
#include <ostream>
#include <utility>

#include "genasmx/common/sequence.hpp"
#include "genasmx/util/timer.hpp"

namespace gx::pipeline {
namespace {

/// Construct the mapper (which builds the index on the engine's pool)
/// under a timer, charging the cost to StageTimes::index_build_s.
mapper::Mapper buildMapperTimed(refmodel::Reference ref,
                                const mapper::MapperConfig& cfg,
                                util::ThreadPool* pool, double& seconds) {
  util::Timer t;
  mapper::Mapper m(std::move(ref), cfg, pool);
  seconds = t.seconds();
  return m;
}

/// minimap2-style confidence from best (s1) vs second-best (s2)
/// alignment quality: full cap when the runner-up is far behind, 0 when
/// the top two candidates are indistinguishable.
int computeMapq(std::uint64_t s1, std::uint64_t s2, int cap) {
  if (s1 == 0 || s2 >= s1) return 0;
  const double frac =
      1.0 - static_cast<double>(s2) / static_cast<double>(s1);
  const int mapq = static_cast<int>(std::lround(cap * frac));
  return std::clamp(mapq, 0, cap);
}

/// The distance-based analogue for the primary-only flow: d1/d2 are the
/// best and second-best candidate edit distances (-1 = absent). Smaller
/// is better; confidence saturates at the full cap once the runner-up
/// has twice the winner's distance. The saturation is what makes capped
/// scoring cheap: any candidate with distance > 2*d1 yields the exact
/// same MAPQ as "no runner-up", so phase 1 may discard it mid-march
/// without ever knowing its true distance.
int computeMapqFromDistances(int d1, int d2, int cap) {
  if (d1 < 0) return 0;
  if (d2 < 0) return cap;  // no runner-up at all
  if (d2 <= d1) return 0;  // indistinguishable (covers d1 == d2 == 0)
  const double frac =
      2.0 * (1.0 - static_cast<double>(d1) / static_cast<double>(d2));
  return std::clamp(static_cast<int>(std::lround(cap * std::min(frac, 1.0))),
                    0, cap);
}

/// Best / second-best tracking over candidates in chain order. Folding
/// capped distances gives the same winner and MAPQ as folding every
/// candidate's uncapped edit distance: a candidate whose distance
/// exceeds the running second-best can change neither.
struct Pick {
  int cand = -1;  ///< winning candidate index (chain order), -1 = none
  int d1 = -1;    ///< winner's edit distance
  int d2 = -1;    ///< runner-up's edit distance, -1 = none

  void update(int c, int d) {
    if (cand < 0 || d < d1) {
      d2 = d1;
      d1 = d;
      cand = c;
    } else if (d2 < 0 || d < d2) {
      d2 = d;
    }
  }

  /// Largest distance that could still change the emitted record. A
  /// candidate must beat the winner (>= d1 matters for the tie that
  /// zeroes MAPQ), and as a runner-up it only matters below the MAPQ
  /// saturation point min(d2, 2*d1) — beyond that the record carries the
  /// full cap either way, so the capped scorer may return -1 without
  /// changing what an uncapped scorer would emit. Caps only tighten as
  /// candidates fold in, so a cap frozen after the chain-best alignment
  /// is >= every later dynamic cap and emits the identical record too.
  [[nodiscard]] int scoreCap() const {
    if (cand < 0) return -1;
    long long c = 2LL * d1;
    if (d2 >= 0 && d2 < c) c = d2;
    if (c < d1) c = d1;
    return static_cast<int>(
        std::min<long long>(c, std::numeric_limits<int>::max()));
  }
};

PipelineStats operator-(const PipelineStats& a, const PipelineStats& b) {
  PipelineStats d;
  d.reads = a.reads - b.reads;
  d.mapped_reads = a.mapped_reads - b.mapped_reads;
  d.unmapped_reads = a.unmapped_reads - b.unmapped_reads;
  d.candidates = a.candidates - b.candidates;
  d.records = a.records - b.records;
  return d;
}

/// Per-read working state for one batch. During the parallel seeding
/// stage a slot is written only by the worker that owns the read, so the
/// fan-out stays race-free and thread-count independent; every later
/// stage runs on the calling thread or inside the engine's batches.
struct ReadWork {
  std::vector<mapper::Candidate> cands;
  std::string rc;  ///< reverse complement, filled iff a candidate needs it
  /// The read's minimizers, captured from the seeding scan so the sketch
  /// prefilter never rescans the read. Canonical keys are strand-
  /// symmetric, so one set serves forward and reverse candidates alike.
  std::vector<mapper::Minimizer> mins;
  unsigned char failed = 0;  ///< 1 = degraded after a per-read failure
  common::Status status;     ///< why, when the failure carried a status
  Pick pick;                 ///< primary-only: winner + runner-up
  /// Primary-only: the winner's traceback alignment (the chain-best
  /// candidate's until phase 2 replaces it).
  common::AlignmentResult best;

  /// Drop every score and mark the read failed; it emits its chain-only
  /// record (or nothing, if seeding itself failed).
  void degrade(common::Status why) {
    pick = Pick{};
    best = common::AlignmentResult{};
    status = std::move(why);
    failed = 1;
  }
};

/// Status of a read whose engine task failed even in isolation (the
/// engine swallows the backend's exception and reports the task).
common::Status taskFailure() {
  return common::Status(common::ErrorCode::kInternal,
                        "candidate alignment failed in isolation; emitted "
                        "chain-only record");
}

/// Shared PAF-record construction for both flows. Target name, length,
/// and coordinates are per contig: a candidate carries its contig id and
/// contig-local window, so no record ever reports the concatenated
/// reference size or a coordinate past its own contig.
struct RecordBuilder {
  const refmodel::Reference& ref;
  PipelineStats& stats;
  std::vector<io::PafRecord>& out;

  io::PafRecord base(const io::FastxRecord& read,
                     const mapper::Candidate& cand) const {
    io::PafRecord rec;
    rec.query_name = read.name;
    rec.query_len = read.seq.size();
    rec.reverse = cand.reverse;
    rec.target_name = ref.name(cand.contig);
    rec.target_len = ref.contig(cand.contig).length;
    return rec;
  }

  // Oriented query span -> forward-read PAF coordinates.
  static void setQuerySpan(io::PafRecord& rec, const io::FastxRecord& read,
                           std::size_t qb, std::size_t qe) {
    rec.query_begin = rec.reverse ? read.seq.size() - qe : qb;
    rec.query_end = rec.reverse ? read.seq.size() - qb : qe;
  }

  /// CIGAR-less record from the best chain, so a read whose candidates
  /// all fail to align is not silently dropped (mapq 0, no cg:Z:).
  void emitChainOnly(const io::FastxRecord& read,
                     const mapper::Candidate& cand) {
    io::PafRecord rec = base(read, cand);
    setQuerySpan(rec, read, cand.read_begin, cand.read_end);
    rec.target_begin = cand.ref_begin;
    rec.target_end = cand.ref_end;
    rec.mapq = 0;
    out.push_back(std::move(rec));
    ++stats.records;
  }

  void emitAligned(const io::FastxRecord& read, const mapper::Candidate& cand,
                   const common::AlignmentResult& res, int mapq) {
    io::PafRecord rec = base(read, cand);
    // A window-global alignment pays the candidate window's slack as
    // boundary indels; trim them so the PAF span is the aligned core.
    auto trim = common::trimIndelEnds(res.cigar);
    rec.cigar = std::move(trim.cigar);
    const std::size_t qb = trim.query_lead;
    setQuerySpan(rec, read, qb, qb + rec.cigar.queryLength());
    rec.target_begin = cand.ref_begin + trim.target_lead;
    rec.target_end = rec.target_begin + rec.cigar.targetLength();
    rec.mapq = mapq;
    io::finalizeFromCigar(rec);
    out.push_back(std::move(rec));
    ++stats.records;
  }
};

}  // namespace

void RunReport::print(std::ostream& os) const {
  os << "[genasmx] run report: " << records_in << " records in, "
     << records_out << " records out";
  if (skipped_bad_records != 0) {
    os << ", " << skipped_bad_records << " bad records skipped";
  }
  if (rejected_reads != 0) {
    os << ", " << rejected_reads << " reads rejected (admission caps)";
  }
  if (failed_reads != 0) {
    os << ", " << failed_reads << " reads degraded after failures";
  }
  if (failed_tasks != 0) {
    os << ", " << failed_tasks << " alignment tasks failed";
  }
  os << '\n';
  if (errors.total() != 0) {
    os << "[genasmx]   error counts:";
    for (std::size_t i = 1; i < common::kErrorCodeCount; ++i) {
      const auto code = static_cast<common::ErrorCode>(i);
      if (errors[code] != 0) {
        os << ' ' << common::errorCodeName(code) << '=' << errors[code];
      }
    }
    os << '\n';
  }
  if (!first_error.ok()) {
    os << "[genasmx]   first error: " << first_error.message() << '\n';
  }
}

bool Cancellation::expired() const noexcept {
  if (cancelled != nullptr && cancelled->load(std::memory_order_relaxed)) {
    return true;
  }
  return deadline != std::chrono::steady_clock::time_point::max() &&
         std::chrono::steady_clock::now() >= deadline;
}

void Cancellation::check() const {
  if (expired()) {
    throw common::Error(common::ErrorCode::kResourceLimit,
                        "request deadline exceeded (batch cancelled at a "
                        "pipeline stage boundary)");
  }
}

MappingPipeline::MappingPipeline(refmodel::Reference ref, PipelineConfig cfg)
    : cfg_(std::move(cfg)),
      owned_engine_(std::make_unique<engine::AlignmentEngine>(cfg_.engine)),
      engine_(owned_engine_.get()),
      mapper_(buildMapperTimed(std::move(ref), cfg_.mapper, &engine_->pool(),
                               times_.index_build_s)) {
  buildPrefilterTable();
}

MappingPipeline::MappingPipeline(mapper::IndexView index, PipelineConfig cfg)
    : cfg_(std::move(cfg)),
      owned_engine_(std::make_unique<engine::AlignmentEngine>(cfg_.engine)),
      engine_(owned_engine_.get()),
      mapper_(index, cfg_.mapper) {
  buildPrefilterTable();
}

MappingPipeline::MappingPipeline(mapper::IndexView index,
                                 engine::AlignmentEngine& shared_engine,
                                 PipelineConfig cfg)
    : cfg_(std::move(cfg)),
      engine_(&shared_engine),
      mapper_(index, cfg_.mapper) {
  buildPrefilterTable();
}

void MappingPipeline::buildPrefilterTable() {
  if (cfg_.prefilter.mode != PrefilterMode::kSketch) return;
  util::Timer t;
  const mapper::IndexView& idx = mapper_.index();
  const std::size_t n = idx.size();
  const std::uint64_t* const keys = idx.keysData();
  const std::uint64_t* const values = idx.valuesData();
  // Values encode (global position << 1) | strand; every kept minimizer
  // occupies a distinct position, so sorting (position, key) pairs is a
  // pure permutation of the index — both index sources (in-memory build
  // and mmap'd file) expose identical arrays, hence identical tables.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> entries;
  entries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    entries.emplace_back(static_cast<std::uint32_t>(values[i] >> 1), keys[i]);
  }
  std::sort(entries.begin(), entries.end());
  pf_positions_.resize(n);
  pf_keys_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    pf_positions_[i] = entries[i].first;
    pf_keys_[i] = entries[i].second;
  }
  times_.index_build_s += t.seconds();
}

struct MappingPipeline::BatchWork {
  BatchWork(const std::vector<io::FastxRecord>& r, const Cancellation& c,
            BatchOutputMap* m, const refmodel::Reference& ref,
            PipelineStats& stats)
      : reads(r), cancel(c), outmap(m), work(r.size()),
        builder{ref, stats, out} {}

  const std::vector<io::FastxRecord>& reads;
  const Cancellation& cancel;
  BatchOutputMap* outmap;
  std::vector<ReadWork> work;
  /// Secondary-emitting flow: every read's candidate results, flattened;
  /// read i's occupy [offset[i], offset[i+1]).
  std::vector<std::size_t> offset;
  std::vector<common::AlignmentResult> results;
  std::vector<io::PafRecord> out;
  RecordBuilder builder;

  /// Oriented query text of read i for a candidate (a view into the read
  /// or its cached reverse complement).
  [[nodiscard]] std::string_view query(std::size_t i,
                                       const mapper::Candidate& c) const {
    return c.reverse ? std::string_view(work[i].rc)
                     : std::string_view(reads[i].seq);
  }
};

std::vector<io::PafRecord> MappingPipeline::mapBatch(
    const std::vector<io::FastxRecord>& reads) {
  return mapBatch(reads, Cancellation{}, nullptr);
}

std::vector<io::PafRecord> MappingPipeline::mapBatch(
    const std::vector<io::FastxRecord>& reads, const Cancellation& cancel,
    BatchOutputMap* outmap) {
  BatchWork b(reads, cancel, outmap, mapper_.reference(), stats_);
  seed(b);
  cancel.check();
  if (cfg_.emit_secondary) {
    scoreAll(b);
    emitAll(b);
  } else {
    scorePrimary(b);
    emitPrimary(b);
  }
  return std::move(b.out);
}

void MappingPipeline::seed(BatchWork& b) {
  // Each read is isolated: a throw poisons that read alone (it degrades
  // to unmapped), never the batch.
  util::Timer t;
  engine_->pool().parallel_for(
      b.reads.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          ReadWork& w = b.work[i];
          try {
            auto cands = mapper_.map(b.reads[i].seq, w.mins);
            if (cands.size() > cfg_.max_candidates) {
              cands.resize(cfg_.max_candidates);
            }
            const bool any_reverse = std::any_of(
                cands.begin(), cands.end(),
                [](const mapper::Candidate& c) { return c.reverse; });
            if (any_reverse) w.rc = common::reverseComplement(b.reads[i].seq);
            w.cands = std::move(cands);
          } catch (...) {
            w.cands.clear();
            w.rc.clear();
            w.mins.clear();
            w.degrade(common::Status::fromCurrentException());
          }
        }
      });
  times_.seed_chain_s += t.seconds();
}

void MappingPipeline::scorePrimary(BatchWork& b) {
  // Phase 1. Ranking and MAPQ come from edit distances (chain order
  // breaks ties), so no candidate but the winner ever needs a CIGAR. The
  // chain-best candidate — the winner for almost every read — is aligned
  // once in one engine batch and its result kept; each read's cap is
  // then frozen, and every further candidate is distance-scored in one
  // engine batch, so a candidate provably unable to change the emitted
  // record aborts its window march as soon as its edits blow the cap.
  // Engine batches isolate a throwing task to its own slot; a read with
  // a failed task degrades to its chain-only record.
  util::Timer t;
  std::vector<engine::AlignmentTask> best_tasks;
  std::vector<std::size_t> best_reads;
  for (std::size_t i = 0; i < b.reads.size(); ++i) {
    if (b.work[i].cands.empty()) continue;
    const auto& cand = b.work[i].cands[0];
    best_tasks.push_back({mapper_.candidateText(cand), b.query(i, cand)});
    best_reads.push_back(i);
  }
  std::vector<unsigned char> task_failed;
  auto best = engine_->alignBatch(best_tasks, &task_failed);
  for (std::size_t k = 0; k < best_reads.size(); ++k) {
    ReadWork& w = b.work[best_reads[k]];
    if (task_failed[k] != 0) {
      w.degrade(taskFailure());
      continue;
    }
    w.best = std::move(best[k]);
    if (w.best.ok) {
      w.pick.update(0, static_cast<int>(w.best.cigar.editDistance()));
    }
  }

  // Plan on the calling thread: freeze caps, run the sketch prefilter,
  // and collect the distance tasks. A throw (sketch scratch growth)
  // costs only its own read.
  util::Timer plan_timer;
  const std::uint64_t grow_before = sketch_.scratch.growEvents();
  const std::uint64_t scans_before = sketch_.scratch.sequenceScans();
  std::vector<engine::DistanceTask> tasks;
  std::vector<std::pair<std::size_t, std::size_t>> task_cand;
  for (std::size_t i = 0; i < b.reads.size(); ++i) {
    if (b.work[i].failed != 0 || b.work[i].cands.size() < 2) continue;
    const std::size_t mark = tasks.size();
    try {
      planRead(b, i, tasks, task_cand);
    } catch (...) {
      tasks.resize(mark);
      task_cand.resize(mark);
      b.work[i].degrade(common::Status::fromCurrentException());
    }
  }
  if (cfg_.prefilter.mode == PrefilterMode::kSketch) {
    prefilter_stats_.sequence_scans +=
        sketch_.scratch.sequenceScans() - scans_before;
    prefilter_stats_.scratch_grow_events +=
        sketch_.scratch.growEvents() - grow_before;
    times_.sketch_s += plan_timer.seconds();
  }

  const auto ds = engine_->distanceBatch(tasks, &task_failed);
  // Fold in chain order (tasks were planned in chain order).
  for (std::size_t k = 0; k < tasks.size(); ++k) {
    ReadWork& w = b.work[task_cand[k].first];
    if (w.failed != 0) continue;
    if (task_failed[k] != 0) {
      w.degrade(taskFailure());
    } else if (ds[k] >= 0) {
      w.pick.update(static_cast<int>(task_cand[k].second), ds[k]);
    }
  }
  times_.phase1_distance_s += t.seconds();
  b.cancel.check();

  // Phase 2 — a traceback alignment only for winners that are not the
  // chain-best candidate.
  t.reset();
  std::vector<engine::AlignmentTask> winner_tasks;
  std::vector<std::size_t> winner_reads;
  for (std::size_t i = 0; i < b.reads.size(); ++i) {
    const ReadWork& w = b.work[i];
    if (w.pick.cand <= 0) continue;  // none, or the kept chain-best
    const auto& cand = w.cands[static_cast<std::size_t>(w.pick.cand)];
    winner_tasks.push_back({mapper_.candidateText(cand), b.query(i, cand)});
    winner_reads.push_back(i);
  }
  auto winners = engine_->alignBatch(winner_tasks);
  for (std::size_t k = 0; k < winner_reads.size(); ++k) {
    b.work[winner_reads[k]].best = std::move(winners[k]);
  }
  times_.traceback_s += t.seconds();
  b.cancel.check();
}

void MappingPipeline::planRead(
    BatchWork& b, std::size_t i, std::vector<engine::DistanceTask>& tasks,
    std::vector<std::pair<std::size_t, std::size_t>>& task_cand) {
  // The sketch prefilter calibrates the read's sketch (built from the
  // minimizers the seeding scan already extracted) against the chain-best
  // window's, and drops a non-best candidate below keep_ratio of that
  // calibration before it reaches the distance kernels. Decisions depend
  // only on sequences and the frozen cap's existence.
  const ReadWork& w = b.work[i];
  const PrefilterConfig& pf = cfg_.prefilter;
  const bool prefilter_on = pf.mode == PrefilterMode::kSketch;
  const int cap = w.pick.scoreCap();
  // Similarity below which a candidate is dropped; < 0 filters nothing
  // (no frozen cap, too few minimizers, or a signal-free calibration).
  double thr = -1.0;
  if (prefilter_on && cap >= 0 && w.mins.size() >= pf.min_minimizers) {
    sketch::sketchMinimizers(w.mins.data(), w.mins.size(), pf.sketch,
                             sketch_.scratch, sketch_.read_sketch);
    sketchWindow(w.cands[0]);
    const double best_est = sketch::estimateSimilarity(sketch_.read_sketch,
                                                       sketch_.window_sketch);
    ++prefilter_stats_.reads_sketched;
    ++prefilter_stats_.windows_sketched;
    if (best_est >= pf.min_best_similarity) thr = pf.keep_ratio * best_est;
  }
  for (std::size_t c = 1; c < w.cands.size(); ++c) {
    if (prefilter_on) {
      ++prefilter_stats_.candidates_seen;
      if (thr >= 0) {
        sketchWindow(w.cands[c]);
        ++prefilter_stats_.windows_sketched;
        if (sketch::estimateSimilarity(sketch_.read_sketch,
                                       sketch_.window_sketch) < thr) {
          ++prefilter_stats_.candidates_filtered;
          continue;
        }
      }
    }
    tasks.push_back(
        {mapper_.candidateText(w.cands[c]), b.query(i, w.cands[c]), cap});
    task_cand.emplace_back(i, c);
  }
}

void MappingPipeline::sketchWindow(const mapper::Candidate& cand) {
  // Binary-search the window's global k-mer-start range in the
  // position-sorted index table and minhash the contiguous key subrange —
  // no sequence is touched. Table entries are the reference's *globally*
  // extracted, occurrence-capped minimizers, so interior picks match a
  // local window scan (minimizer locality) while ~(w+k) bp of edge effects
  // and repeat masking apply to the chain-best and non-best windows alike
  // — the relative keep_ratio test compares like with like.
  const auto k = static_cast<std::uint64_t>(mapper_.config().k);
  const auto& contig = mapper_.reference().contig(cand.contig);
  const std::uint64_t gb = contig.offset + cand.ref_begin;
  const std::uint64_t ge = contig.offset + cand.ref_end;
  const auto lo_pos = static_cast<std::uint32_t>(gb);
  // Last k-mer fully inside the window starts at ge - k.
  const auto hi_pos =
      static_cast<std::uint32_t>(ge >= gb + k ? ge - k + 1 : gb);
  const auto first =
      std::lower_bound(pf_positions_.begin(), pf_positions_.end(), lo_pos);
  const auto last = std::lower_bound(first, pf_positions_.end(), hi_pos);
  const auto off = static_cast<std::size_t>(first - pf_positions_.begin());
  sketch::sketchKeys(pf_keys_.data() + off,
                     static_cast<std::size_t>(last - first),
                     cfg_.prefilter.sketch, sketch_.scratch,
                     sketch_.window_sketch);
}

void MappingPipeline::emitPrimary(BatchWork& b) {
  emitReads(b, [&](std::size_t i) {
    const ReadWork& w = b.work[i];
    if (w.pick.cand < 0) {
      b.builder.emitChainOnly(b.reads[i], w.cands[0]);
      return;
    }
    const auto& cand = w.cands[static_cast<std::size_t>(w.pick.cand)];
    if (w.best.ok) {
      b.builder.emitAligned(
          b.reads[i], cand, w.best,
          computeMapqFromDistances(w.pick.d1, w.pick.d2, cfg_.mapq_cap));
    } else {
      tallyAlignmentFailure(b, i);
      b.builder.emitChainOnly(b.reads[i], cand);
    }
  });
}

void MappingPipeline::scoreAll(BatchWork& b) {
  // Every record needs a CIGAR anyway, so a distance phase would be pure
  // overhead: flatten every read's candidates into one engine batch.
  // Targets are views into the genome, queries views into the read (or
  // its cached reverse complement): no window text is copied.
  util::Timer t;
  b.offset.assign(b.reads.size() + 1, 0);
  for (std::size_t i = 0; i < b.reads.size(); ++i) {
    b.offset[i + 1] = b.offset[i] + b.work[i].cands.size();
  }
  std::vector<engine::AlignmentTask> tasks;
  tasks.reserve(b.offset.back());
  for (std::size_t i = 0; i < b.reads.size(); ++i) {
    for (const auto& c : b.work[i].cands) {
      tasks.push_back({mapper_.candidateText(c), b.query(i, c)});
    }
  }
  b.results = engine_->alignBatch(tasks);
  times_.traceback_s += t.seconds();
  b.cancel.check();
}

void MappingPipeline::emitAll(BatchWork& b) {
  emitReads(b, [&](std::size_t i) {
    const auto& read = b.reads[i];
    const auto& cands = b.work[i].cands;
    struct Scored {
      std::size_t cand;
      const common::AlignmentResult* res;
      std::uint64_t matches;
      std::uint64_t edits;
    };
    std::vector<Scored> scored;
    for (std::size_t c = 0; c < cands.size(); ++c) {
      const auto& res = b.results[b.offset[i] + c];
      if (!res.ok) continue;
      scored.push_back({c, &res, res.cigar.count(common::EditOp::Match),
                        res.cigar.editDistance()});
    }
    if (scored.empty()) {
      tallyAlignmentFailure(b, i);
      b.builder.emitChainOnly(read, cands[0]);
      return;
    }

    // Primary = most matches; ties to fewer edits, then chain order.
    std::size_t best = 0;
    for (std::size_t k = 1; k < scored.size(); ++k) {
      if (scored[k].matches > scored[best].matches ||
          (scored[k].matches == scored[best].matches &&
           scored[k].edits < scored[best].edits)) {
        best = k;
      }
    }
    std::uint64_t second = 0;
    for (std::size_t k = 0; k < scored.size(); ++k) {
      if (k != best) second = std::max(second, scored[k].matches);
    }
    b.builder.emitAligned(
        read, cands[scored[best].cand], *scored[best].res,
        computeMapq(scored[best].matches, second, cfg_.mapq_cap));
    for (std::size_t k = 0; k < scored.size(); ++k) {
      if (k != best) {
        b.builder.emitAligned(read, cands[scored[k].cand], *scored[k].res, 0);
      }
    }
  });
}

void MappingPipeline::emitReads(
    BatchWork& b, const std::function<void(std::size_t)>& emitMapped) {
  util::Timer t;
  for (std::size_t i = 0; i < b.reads.size(); ++i) {
    const std::size_t out_before = b.out.size();
    ++stats_.reads;
    tallyFailure(b, i);
    if (b.work[i].cands.empty()) {
      ++stats_.unmapped_reads;
    } else {
      stats_.candidates += b.work[i].cands.size();
      emitMapped(i);
      ++stats_.mapped_reads;
    }
    // Per-read record counts for callers that split the batch back into
    // requests.
    if (b.outmap != nullptr) {
      b.outmap->records_per_read.push_back(
          static_cast<std::uint32_t>(b.out.size() - out_before));
      b.outmap->read_failed.push_back(b.work[i].failed);
    }
  }
  times_.output_s += t.seconds();
}

void MappingPipeline::tallyFailure(BatchWork& b, std::size_t i) {
  const ReadWork& w = b.work[i];
  if (w.failed == 0) return;
  ++report_.failed_reads;
  report_.errors.add(w.status.ok() ? common::ErrorCode::kInternal
                                   : w.status.code());
  if (report_.first_error.ok() && !w.status.ok()) {
    report_.first_error = w.status;
  }
}

void MappingPipeline::tallyAlignmentFailure(BatchWork& b, std::size_t i) {
  // The engine degrades a throwing lane to ok == false; a healthy
  // backend always produces a result. Runs after emitReads' tallyFailure
  // for this read, so a read already failed is not counted twice.
  ReadWork& w = b.work[i];
  if (w.failed != 0) return;
  w.failed = 1;
  w.status = common::Status(
      common::ErrorCode::kInternal,
      "candidate alignments failed; emitted chain-only record");
  tallyFailure(b, i);
}

PipelineStats MappingPipeline::run(std::istream& reads_in, io::PafWriter& out,
                                   const std::string& input_path) {
  const PipelineStats before = stats_;
  const std::uint64_t task_failures_before = engine_->taskFailures();
  const std::size_t batch_reads = cfg_.batch_reads ? cfg_.batch_reads : 256;
  io::FastxPolicy policy;
  policy.on_bad_record = cfg_.on_bad_record;
  policy.path = input_path;
  io::FastxReader reader(reads_in, std::move(policy));

  // Report bookkeeping shared by the clean exit and the throw path: the
  // reader's skip count and the engine's task-failure delta are folded
  // in exactly once, whatever way this run ends.
  const auto finalizeReport = [&] {
    report_.skipped_bad_records += reader.skipped();
    report_.errors.add(common::ErrorCode::kMalformedInput, reader.skipped());
    report_.failed_tasks += engine_->taskFailures() - task_failures_before;
  };

  try {
    std::vector<io::FastxRecord> batch;
    std::size_t batch_bytes = 0;
    const auto dispatch = [&] {
      const auto records = mapBatch(batch);
      util::Timer write_timer;
      for (const auto& rec : records) out.write(rec);
      times_.output_s += write_timer.seconds();
      report_.records_out += records.size();
      batch.clear();
      batch_bytes = 0;
    };
    io::FastxRecord rec;
    while (reader.next(rec)) {
      ++report_.records_in;
      if (cfg_.max_read_len != 0 && rec.seq.size() > cfg_.max_read_len) {
        // Admission cap: the read never reaches the mapper; one counter
        // tick instead of an unbounded DP allocation.
        ++report_.rejected_reads;
        report_.errors.add(common::ErrorCode::kResourceLimit);
        continue;
      }
      batch_bytes += rec.seq.size();
      batch.push_back(std::move(rec));
      if (batch.size() >= batch_reads ||
          (cfg_.max_batch_bytes != 0 && batch_bytes >= cfg_.max_batch_bytes)) {
        dispatch();
      }
    }
    if (!batch.empty()) dispatch();
    util::Timer flush_timer;
    out.flush();
    times_.output_s += flush_timer.seconds();
  } catch (...) {
    finalizeReport();
    if (report_.first_error.ok()) {
      report_.first_error = common::Status::fromCurrentException();
      report_.errors.add(report_.first_error.code());
    }
    report_.print(std::cerr);
    throw;
  }
  finalizeReport();
  if (!report_.clean()) report_.print(std::cerr);
  return stats_ - before;
}

}  // namespace gx::pipeline
