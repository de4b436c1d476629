#include "support/thread_pool.hpp"

#include <algorithm>

namespace fortd {

ThreadPool::ThreadPool(int threads) {
  if (threads < 0) threads = 0;
  workers_.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (stop_) return;
    }
    drain(nullptr);
  }
}

void ThreadPool::drain(Batch* own) {
  for (;;) {
    size_t i;
    Batch* batch;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (own) {
        if (own->next >= own->total) return;
        batch = own;
      } else {
        // Oldest batch with unclaimed work: FIFO across callers, so an
        // early request's indices are never starved by a later one.
        if (queue_.empty()) return;
        batch = queue_.front();
      }
      i = batch->next++;
      // Claiming the last index retires the batch from the queue — it
      // must leave before the owning parallel_for can return and free
      // the stack storage the pointer refers to.
      if (batch->next >= batch->total)
        queue_.erase(std::find(queue_.begin(), queue_.end(), batch));
    }
    std::exception_ptr err;
    try {
      (*batch->fn)(i);
    } catch (...) {
      err = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (err) batch->errors[i] = err;
      if (++batch->completed == batch->total) done_cv_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;  // guaranteed no-op: batch state untouched
  if (workers_.empty() || n == 1) {
    // Inline: still capture-and-rethrow so behaviour matches the pool.
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  Batch batch;
  batch.fn = &fn;
  batch.total = n;
  batch.errors.assign(n, nullptr);
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(&batch);
  }
  work_cv_.notify_all();
  drain(&batch);  // the caller works too — and can finish the batch alone
  std::vector<std::exception_ptr> errors;
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return batch.completed == batch.total; });
    errors = std::move(batch.errors);
  }
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace fortd
