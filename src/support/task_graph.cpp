#include "support/task_graph.hpp"

#include <cassert>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "support/thread_pool.hpp"

namespace fortd {

namespace {

constexpr uint32_t kNoNode = ~uint32_t{0};

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// All mutable scheduling state of one parallel run(). One mutex guards
/// everything: tasks are whole-procedure compilations, so the scheduler
/// is cold next to its payloads and finer-grained locking would only
/// buy complexity.
struct RunState {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::deque<uint32_t>> deques;  // per-slot runnable nodes
  size_t ready_count = 0;  // nodes currently sitting in deques
  size_t done = 0;         // nodes finished or cancelled
  // (node index, exception) per failed node body.
  std::vector<std::pair<size_t, std::exception_ptr>> errors;
};

}  // namespace

TaskGraphStats& TaskGraphStats::operator+=(const TaskGraphStats& o) {
  executed += o.executed;
  stolen += o.stolen;
  cancelled += o.cancelled;
  if (o.ready_peak > ready_peak) ready_peak = o.ready_peak;
  if (o.critical_path > critical_path) critical_path = o.critical_path;
  idle_ms += o.idle_ms;
  wall_ms += o.wall_ms;
  return *this;
}

TaskGraph::TaskGraph(size_t n) : nodes_(n) {}

void TaskGraph::add_dependency(size_t node, size_t dep) {
  assert(!ran_ && "add_dependency after run()");
  assert(node < nodes_.size() && dep < nodes_.size());
  assert(dep < node && "node indices must be a topological order");
  nodes_[node].pending++;
  nodes_[dep].dependents.push_back(static_cast<uint32_t>(node));
}

void TaskGraph::run(ThreadPool* pool, const std::function<void(size_t)>& fn) {
  if (ran_) throw std::logic_error("TaskGraph::run called twice");
  ran_ = true;
  const auto t0 = std::chrono::steady_clock::now();

  // Critical path: longest chain of dependent nodes, the lower bound on
  // any schedule's span. Indices are a topological order, so one
  // ascending relaxation over forward edges suffices.
  if (!nodes_.empty()) {
    std::vector<uint32_t> depth(nodes_.size(), 1);
    for (size_t i = 0; i < nodes_.size(); ++i)
      for (uint32_t d : nodes_[i].dependents)
        if (depth[i] + 1 > depth[d]) depth[d] = depth[i] + 1;
    for (uint32_t d : depth)
      if (d > stats_.critical_path) stats_.critical_path = d;
  }

  if (!pool || pool->size() == 0) {
    // Inline: index order *is* a valid schedule (deps precede their
    // dependents), and it is exactly the serial emission order.
    run_inline(fn);
    stats_.wall_ms += ms_since(t0);
    return;
  }

  RunState state;
  const size_t nslots = static_cast<size_t>(pool->size()) + 1;
  const size_t n = nodes_.size();
  state.deques.resize(nslots);
  // Scatter the initial frontier round-robin so every slot starts with
  // local work instead of stealing from slot 0.
  for (size_t i = 0; i < n; ++i)
    if (nodes_[i].pending == 0)
      state.deques[state.ready_count++ % nslots].push_back(
          static_cast<uint32_t>(i));
  if (state.ready_count > stats_.ready_peak)
    stats_.ready_peak = state.ready_count;

  // Mark `seeds` (whose `done` was already counted) finished, poisoned
  // ones as cancellation sources, and cascade: a dependent of a failed
  // or cancelled node is cancelled the moment its counter hits zero —
  // it never enqueues, so the deques hold only runnable nodes. Returns
  // the newly runnable dependents. Caller holds state.mu.
  auto cascade_done = [&](std::vector<uint32_t> cascade,
                          std::vector<bool> poison) {
    std::vector<size_t> ready;
    for (size_t c = 0; c < cascade.size(); ++c) {
      const bool bad = poison[c];
      for (uint32_t d : nodes_[cascade[c]].dependents) {
        if (bad) nodes_[d].cancelled = true;
        if (--nodes_[d].pending == 0) {
          if (nodes_[d].cancelled) {
            ++state.done;
            ++stats_.cancelled;
            cascade.push_back(d);
            poison.push_back(true);
          } else {
            ready.push_back(d);
          }
        }
      }
    }
    return ready;
  };

  pool->parallel_for(nslots, [&](size_t slot) {
    for (;;) {
      uint32_t node = kNoNode;
      bool stole = false;
      {
        std::unique_lock<std::mutex> lock(state.mu);
        for (;;) {
          if (!state.deques[slot].empty()) {
            node = state.deques[slot].back();  // LIFO: freshest, warmest
            state.deques[slot].pop_back();
            break;
          }
          for (size_t v = 1; v < nslots && node == kNoNode; ++v) {
            auto& victim = state.deques[(slot + v) % nslots];
            if (!victim.empty()) {
              node = victim.front();  // FIFO end: the victim's coldest
              victim.pop_front();
              stole = true;
            }
          }
          if (node != kNoNode) break;
          if (state.done == n) return;
          const auto w0 = std::chrono::steady_clock::now();
          state.cv.wait(lock, [&] {
            return state.ready_count > 0 || state.done == n;
          });
          stats_.idle_ms += ms_since(w0);
        }
        --state.ready_count;
        if (stole) ++stats_.stolen;
      }

      std::exception_ptr err;
      try {
        fn(node);
      } catch (...) {
        err = std::current_exception();
      }

      size_t n_ready = 0;
      bool all_done = false;
      {
        std::lock_guard<std::mutex> lock(state.mu);
        ++stats_.executed;
        if (err) state.errors.emplace_back(node, err);
        ++state.done;
        const std::vector<size_t> ready =
            cascade_done({node}, {err != nullptr});
        for (size_t r : ready)
          state.deques[slot].push_back(static_cast<uint32_t>(r));
        n_ready = ready.size();
        state.ready_count += n_ready;
        if (state.ready_count > stats_.ready_peak)
          stats_.ready_peak = state.ready_count;
        all_done = state.done == n;
      }
      if (all_done || n_ready > 1)
        state.cv.notify_all();
      else if (n_ready == 1)
        state.cv.notify_one();
    }
  });

  stats_.wall_ms += ms_since(t0);

  if (!state.errors.empty()) {
    size_t best = 0;
    for (size_t i = 1; i < state.errors.size(); ++i)
      if (state.errors[i].first < state.errors[best].first) best = i;
    std::rethrow_exception(state.errors[best].second);
  }
}

void TaskGraph::run_inline(const std::function<void(size_t)>& fn) {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    assert(nodes_[i].pending == 0 &&
           "dependency edge violates topological node order");
    fn(i);  // a throw propagates immediately: serial first-failure
    ++stats_.executed;
    for (uint32_t d : nodes_[i].dependents) --nodes_[d].pending;
  }
}

}  // namespace fortd
