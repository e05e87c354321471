#include "genasmx/util/thread_pool.hpp"

#include <algorithm>
#include <utility>

namespace gx::util {

std::size_t resolveThreads(std::size_t threads) noexcept {
  if (threads != 0) return threads;
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t threads) : size_(resolveThreads(threads)) {
  if (size_ == 1) return;  // parallel_for runs on the caller
  workers_.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn,
    std::size_t grain) {
  if (n == 0) return;
  grain = std::max<std::size_t>(grain, 1);
  const std::size_t chunks =
      workers_.empty()
          ? 1
          : std::max<std::size_t>(1, std::min(n / grain, size() * 4));
  if (chunks == 1) {
    fn(0, n);
    return;
  }
  const std::size_t step = (n + chunks - 1) / chunks;
  // The group outlives every chunk because we block on it below, so the
  // workers may hold raw pointers into this frame.
  Group group;
  {
    std::lock_guard lock(mu_);
    for (std::size_t begin = 0; begin < n; begin += step) {
      const std::size_t end = std::min(begin + step, n);
      tasks_.push(Task{[&fn, begin, end] { fn(begin, end); }, &group});
      ++group.in_flight;
    }
  }
  cv_task_.notify_all();
  std::unique_lock lock(mu_);
  cv_idle_.wait(lock, [&group] { return group.in_flight == 0; });
  if (group.error) {
    std::exception_ptr err = std::exchange(group.error, nullptr);
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    Task task;
    {
      std::unique_lock lock(mu_);
      cv_task_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    std::exception_ptr err;
    try {
      task.fn();
    } catch (...) {
      err = std::current_exception();
    }
    std::lock_guard lock(mu_);
    if (err && !task.group->error) task.group->error = err;
    if (--task.group->in_flight == 0) cv_idle_.notify_all();
  }
}

}  // namespace gx::util
