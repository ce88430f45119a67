// Fixed-size thread pool for running independent simulations concurrently.
//
// Deliberately minimal: a locked deque of type-erased tasks, submit()
// returning a std::future that carries the task's result or exception, and a
// draining destructor — every submitted task runs before the pool is torn
// down, so futures are never broken. No work stealing, no priorities; sweep
// cells are coarse (whole simulations), so a single queue is never the
// bottleneck.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

namespace sdsched {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means default_concurrency().
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains the queue (every submitted task runs), then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// std::thread::hardware_concurrency() with a floor of 1 (the standard
  /// allows it to return 0 when unknown).
  [[nodiscard]] static std::size_t default_concurrency() noexcept;

  /// Enqueue `fn` and return a future for its result. The future rethrows
  /// any exception the task threw. Throws std::runtime_error if the pool is
  /// already shutting down.
  template <typename F>
  [[nodiscard]] auto submit(F fn) -> std::future<std::invoke_result_t<F&>> {
    using R = std::invoke_result_t<F&>;
    // shared_ptr because std::function requires copyable callables and
    // packaged_task is move-only.
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(fn));
    std::future<R> result = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) throw std::runtime_error("ThreadPool: submit after shutdown");
      queue_.emplace_back([task] { (*task)(); });
    }
    ready_.notify_one();
    return result;
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable ready_;
  bool stopping_ = false;
};

}  // namespace sdsched
