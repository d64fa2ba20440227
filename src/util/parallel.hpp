#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

/// \file parallel.hpp
/// Shared threading helpers: `parallelFor` runs an index-addressed job
/// list across hardware threads (campaign engine, CLI), and
/// `WorkerPool` is a persistent pool with a *bounded* job queue — the
/// serve daemon's admission queue + worker pool (src/serve) is built on
/// it. Determinism is the caller's business (our jobs write to disjoint
/// slots).

namespace cawo {

/// Invoke `fn(i)` for every i in [0, n) on up to `threads` workers.
///
/// Pinned edge-case behaviour (tests/test_parallel.cpp):
///   * `n == 0` — returns immediately, `fn` is never invoked;
///   * `threads == 0` — clamps to `hardware_concurrency()`, and to 1 when
///     even that reports 0;
///   * `threads > n` — clamps to `n` (never spawns an idle thread);
///   * exceptions — if a job throws, no *further* jobs are started
///     (already-running jobs finish), and the first exception (in
///     completion order) is rethrown on the calling thread after all
///     workers have drained. With one effective worker the job loop runs
///     inline and the exception propagates directly — same observable
///     behaviour.
template <typename Fn>
void parallelFor(std::size_t n, unsigned threads, Fn&& fn) {
  if (n == 0) return;
  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  threads = std::min<unsigned>(threads, static_cast<unsigned>(n));

  if (threads == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr firstError;
  std::mutex errorMutex;

  auto worker = [&]() {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        const std::scoped_lock lock(errorMutex);
        if (!failed.exchange(true)) firstError = std::current_exception();
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  if (firstError) std::rethrow_exception(firstError);
}

/// Persistent worker pool with a bounded job queue and non-blocking
/// admission.
///
/// Unlike `parallelFor` (a one-shot fork/join over a fixed index range),
/// a `WorkerPool` lives for many submissions: `trySubmit` enqueues a job
/// and returns immediately — `false` when the queue is at capacity
/// (backpressure: the caller decides whether to reject, retry or shed
/// load) or when the pool is stopping. Workers pop jobs FIFO.
///
/// Exceptions escaping a job are caught and stored; the first one (in
/// completion order) is exposed via `firstError()` and the pool keeps
/// running — one poisoned request must not take a long-running service
/// down. Jobs that need failure semantics should catch their own.
///
/// `drain()` blocks until the queue is empty *and* every worker is idle.
/// The destructor drains, then joins. Thread-safe throughout.
class WorkerPool {
public:
  /// Spawn `threads` workers (0 = hardware concurrency, min 1) serving a
  /// queue of at most `queueCapacity` (≥ 1) pending jobs.
  explicit WorkerPool(unsigned threads, std::size_t queueCapacity = 1024)
      : capacity_(std::max<std::size_t>(1, queueCapacity)) {
    if (threads == 0) threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
    threadCount_ = threads;
    workers_.reserve(threads);
    for (unsigned t = 0; t < threads; ++t)
      workers_.emplace_back([this] { workerLoop(); });
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  ~WorkerPool() { stop(); }

  /// Enqueue a job; false when full or stopping (the job is dropped).
  bool trySubmit(std::function<void()> job) {
    {
      const std::scoped_lock lock(mutex_);
      if (stopping_ || queue_.size() >= capacity_) return false;
      queue_.push_back(std::move(job));
    }
    wake_.notify_one();
    return true;
  }

  /// Block until the queue is empty and all workers are idle. Jobs
  /// submitted concurrently with the drain may extend the wait.
  void drain() {
    std::unique_lock lock(mutex_);
    idle_.wait(lock, [this] { return queue_.empty() && busy_ == 0; });
  }

  /// Finish every queued job, then join the workers. Idempotent and safe
  /// to call from several threads (late callers wait for the join, then
  /// find nothing left to do). After `stop()`, `trySubmit` returns false.
  void stop() {
    {
      const std::scoped_lock lock(mutex_);
      stopping_ = true;
    }
    wake_.notify_all();
    const std::scoped_lock joinLock(joinMutex_);
    for (std::thread& t : workers_) t.join();
    workers_.clear();
  }

  unsigned threads() const { return threadCount_; }

  /// The enforced queue bound: the requested capacity, at least 1.
  std::size_t capacity() const { return capacity_; }

  /// Jobs currently waiting in the queue (excludes running jobs).
  std::size_t queueDepth() const {
    const std::scoped_lock lock(mutex_);
    return queue_.size();
  }

  /// Jobs currently executing on a worker.
  std::size_t busy() const {
    const std::scoped_lock lock(mutex_);
    return busy_;
  }

  /// First exception a job let escape (null when none ever did).
  std::exception_ptr firstError() const {
    const std::scoped_lock lock(mutex_);
    return firstError_;
  }

private:
  void workerLoop() {
    for (;;) {
      std::function<void()> job;
      {
        std::unique_lock lock(mutex_);
        wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return; // stopping and fully drained
        job = std::move(queue_.front());
        queue_.pop_front();
        ++busy_;
      }
      try {
        job();
      } catch (...) {
        const std::scoped_lock lock(mutex_);
        if (!firstError_) firstError_ = std::current_exception();
      }
      {
        const std::scoped_lock lock(mutex_);
        --busy_;
      }
      idle_.notify_all();
    }
  }

  mutable std::mutex mutex_;
  std::mutex joinMutex_; ///< serialises concurrent stop() joins
  std::condition_variable wake_; ///< queue non-empty or stopping
  std::condition_variable idle_; ///< queue empty and no busy workers
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  unsigned threadCount_ = 0;
  std::size_t capacity_;
  std::size_t busy_ = 0;
  bool stopping_ = false;
  std::exception_ptr firstError_;
};

} // namespace cawo
