// A small fixed-size worker pool for the compilation scheduler.
// parallel_for(n, fn) executes fn(0..n-1) across the workers and blocks
// until every index completed. Exceptions thrown by fn are captured per
// index and the lowest-index one is rethrown after the batch drains, so
// failures surface in the same order a serial loop would report them.
//
// Batches from *different* threads may overlap: each parallel_for call
// enqueues an independent batch, workers claim indices from the oldest
// batch that still has unclaimed work (FIFO — early batches never
// starve behind late ones), and every caller participates in its own
// batch, claiming all of its indices itself if no worker is free. A
// caller therefore always completes without any worker's help, which is
// what lets the compile service run many compilations over one shared
// pool: concurrent requests split the workers fairly instead of each
// owning a private pool.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fortd {

class ThreadPool {
public:
  /// Spawns `threads` workers (0 = run every batch inline on the caller).
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Run fn(i) for every i in [0, n). The caller participates in the
  /// batch — and claims every index itself if the workers are busy with
  /// other batches — so completion never depends on pool availability.
  /// Blocks until all indices finished; rethrows the lowest-index
  /// captured exception. n == 0 is guaranteed to be a no-op that never
  /// touches batch state (no lock, no worker wake-up). Thread-safe:
  /// concurrent calls interleave as independent FIFO batches.
  void parallel_for(size_t n, const std::function<void(size_t)>& fn);

private:
  /// One parallel_for invocation. Lives on the caller's stack; the
  /// queue_ holds it only while indices remain unclaimed, but claimers
  /// keep a raw pointer until they report completion — the caller's
  /// final wait (completed == total) is what keeps the storage alive.
  struct Batch {
    const std::function<void(size_t)>* fn = nullptr;
    size_t next = 0;       // first unclaimed index
    size_t total = 0;
    size_t completed = 0;  // indices whose fn returned (or threw)
    std::vector<std::exception_ptr> errors;
  };

  void worker_loop();
  /// Claim and run indices of `batch` until it is exhausted; with
  /// batch == nullptr, keep claiming from the oldest unexhausted batch
  /// (worker behaviour).
  void drain(Batch* batch);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for unclaimed work
  std::condition_variable done_cv_;   // parallel_for waits for completion
  bool stop_ = false;

  // Batches with unclaimed indices, oldest first (guarded by mu_). A
  // batch is popped when its last index is claimed; completion is
  // tracked in the Batch itself.
  std::deque<Batch*> queue_;
};

}  // namespace fortd
