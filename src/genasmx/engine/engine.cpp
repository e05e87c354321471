#include "genasmx/engine/engine.hpp"

#include <utility>

namespace gx::engine {
namespace {

/// Fewest tasks a batch chunk carries: a small batch packs its tasks into
/// one aligner's SIMD lanes (and runs inline on the calling thread when
/// it fits one chunk) instead of spreading one task per worker. Results
/// do not depend on chunking.
constexpr std::size_t kMinChunkTasks = 4;

// The per-result-kind calls of AlignmentEngine::runBatch, overloaded on
// the task type.
void runTasks(Aligner& aligner, const AlignmentTask* tasks, std::size_t count,
              common::AlignmentResult* results) {
  aligner.alignBatch(tasks, count, results);
}

void runTasks(Aligner& aligner, const DistanceTask* tasks, std::size_t count,
              int* results) {
  aligner.distanceBatch(tasks, count, results);
}

common::AlignmentResult runTask(Aligner& aligner, const AlignmentTask& task) {
  return aligner.align(task.target, task.query);
}

int runTask(Aligner& aligner, const DistanceTask& task) {
  return aligner.distance(task.target, task.query, task.cap);
}

}  // namespace

AlignmentEngine::AlignmentEngine(EngineConfig cfg)
    : cfg_(std::move(cfg)), pool_(cfg_.threads) {
  // Constructing one aligner up front validates the backend name and its
  // configuration eagerly; the instance seeds the spare pool rather than
  // sitting idle.
  spares_.push_back(makeAligner(cfg_.backend, cfg_.aligner));
}

common::AlignmentResult AlignmentEngine::align(std::string_view target,
                                               std::string_view query) {
  AlignerPtr aligner = acquireAligner();
  common::AlignmentResult result = aligner->align(target, query);
  releaseAligner(std::move(aligner));
  return result;
}

int AlignmentEngine::distance(std::string_view target, std::string_view query,
                              int cap) {
  // Like align(): the aligner is recycled only on success — if distance
  // throws, the local unique_ptr destroys it instead of returning a
  // possibly-torn scratch state to the spare pool.
  AlignerPtr aligner = acquireAligner();
  const int d = aligner->distance(target, query, cap);
  releaseAligner(std::move(aligner));
  return d;
}

AlignerPtr AlignmentEngine::acquireAligner() {
  {
    const std::lock_guard<std::mutex> lock(spares_mu_);
    if (!spares_.empty()) {
      AlignerPtr aligner = std::move(spares_.back());
      spares_.pop_back();
      return aligner;
    }
  }
  return makeAligner(cfg_.backend, cfg_.aligner);
}

void AlignmentEngine::releaseAligner(AlignerPtr aligner) {
  const std::lock_guard<std::mutex> lock(spares_mu_);
  spares_.push_back(std::move(aligner));
}

template <class Task, class Result>
std::vector<Result> AlignmentEngine::runBatch(
    const std::vector<Task>& tasks, const Result& none,
    std::vector<unsigned char>* failed) {
  std::vector<Result> results(tasks.size(), none);
  if (failed != nullptr) failed->assign(tasks.size(), 0);
  pool_.parallel_for(tasks.size(), [&](std::size_t begin, std::size_t end) {
    // One checked-out aligner per chunk: solver scratch amortizes across
    // the chunk's share and, via the spare pool, across batches — the
    // pool never holds more aligners than the peak chunk concurrency.
    // The whole chunk goes through the backend's batched entry point.
    {
      AlignerLease aligner(*this);
      try {
        runTasks(*aligner, tasks.data() + begin, end - begin,
                 results.data() + begin);
        return;
      } catch (...) {
        // The batched call died somewhere inside the chunk and may have
        // left partial results and torn solver scratch behind. Drop the
        // aligner (never back to the spare pool) and fall through to the
        // per-task isolation rerun below.
        aligner.poison();
        batch_faults_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    // Isolation rerun: one task at a time on a fresh aligner, so one bad
    // read costs exactly its own lane. A rerun aligner that survives its
    // tasks is healthy and joins the spare pool.
    AlignerPtr solo;
    for (std::size_t i = begin; i < end; ++i) {
      results[i] = none;  // the batched call may have part-filled the chunk
      try {
        if (!solo) solo = makeAligner(cfg_.backend, cfg_.aligner);
        results[i] = runTask(*solo, tasks[i]);
      } catch (...) {
        solo.reset();  // scratch state unknown after the throw
        results[i] = none;
        if (failed != nullptr) (*failed)[i] = 1;
        task_failures_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (solo) releaseAligner(std::move(solo));
  }, kMinChunkTasks);
  return results;
}

std::vector<common::AlignmentResult> AlignmentEngine::alignBatch(
    const std::vector<AlignmentTask>& tasks,
    std::vector<unsigned char>* failed) {
  return runBatch(tasks, common::AlignmentResult{}, failed);
}

std::vector<int> AlignmentEngine::distanceBatch(
    const std::vector<DistanceTask>& tasks,
    std::vector<unsigned char>* failed) {
  return runBatch(tasks, -1, failed);
}

std::vector<common::AlignmentResult> AlignmentEngine::alignBatch(
    const std::vector<mapper::AlignmentPair>& pairs) {
  std::vector<AlignmentTask> tasks;
  tasks.reserve(pairs.size());
  for (const auto& p : pairs) tasks.push_back({p.target, p.query});
  return alignBatch(tasks);
}

}  // namespace gx::engine
