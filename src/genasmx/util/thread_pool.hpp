#pragma once
// Minimal fixed-size thread pool with a chunked parallel_for used to
// parallelize alignment batches.
//
// Alignment pairs are embarrassingly parallel (the paper runs 48 CPU
// threads); the pool keeps per-task overhead low by handing out index
// ranges rather than single indices. A pool of size 1 starts no thread:
// its parallel_for runs the whole range on the caller.
//
// parallel_for is safe to call from several caller threads at once:
// each call tracks its own chunks in a per-call task group, so a
// caller only waits for (and only sees exceptions from) its own work.
// The server layer relies on this to share one AlignmentEngine across
// concurrent mapping sessions.

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace gx::util {

/// A thread count with 0 resolved to std::thread::hardware_concurrency()
/// (at least 1).
[[nodiscard]] std::size_t resolveThreads(std::size_t threads) noexcept;

class ThreadPool {
 public:
  /// threads == 0 selects resolveThreads(0).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Threads of work, the caller's included when size() == 1.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Run fn(begin, end) over [0, n) split into at most `size()*4` chunks
  /// of at least `grain` indices each, blocking until completion. fn must
  /// be safe to call concurrently. A single chunk (always, for a size-1
  /// pool) runs inline on the calling thread: no hand-off, no wake-ups.
  /// Rethrows the first exception any chunk threw once every chunk has
  /// finished, so the pool is reusable afterwards; callers that need
  /// per-chunk isolation catch inside fn. Concurrent calls from different
  /// threads are independent: each waits only for its own chunks.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& fn,
                    std::size_t grain = 1);

 private:
  /// One parallel_for call's accounting, stack-allocated by the caller.
  struct Group {
    std::size_t in_flight = 0;
    std::exception_ptr error;  ///< first chunk throw in this group
  };

  struct Task {
    std::function<void()> fn;
    Group* group = nullptr;
  };

  void worker_loop();

  std::size_t size_;
  std::vector<std::thread> workers_;
  std::queue<Task> tasks_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  bool stop_ = false;
};

}  // namespace gx::util
