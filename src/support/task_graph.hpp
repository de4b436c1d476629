// Barrier-free dependency-graph executor for the compilation scheduler.
//
// A schedule that partitions the augmented call graph into depth levels
// with a full barrier between them makes every level pay the stall of
// its slowest procedure: dgefa's wide daxpy level would wait behind the
// serial idamax chain even though the daxpys' own callees finished long
// ago. TaskGraph has no barrier: each node carries a remaining-dependency
// counter, finishing a node decrements its dependents, and a dependent
// that hits zero is enqueued at that moment — a ready caller starts when
// its *own* callees finish, not when the whole level does.
//
// Execution is work-stealing over the shared ThreadPool: one
// parallel_for batch whose indices are scheduler worker slots. Each
// slot owns a deque; finished nodes push their newly-ready dependents
// onto the finishing slot's deque (LIFO pop for locality), and an idle
// slot steals from the front of another slot's deque. All scheduler
// state is guarded by one mutex — tasks are whole-procedure compiles
// (micro- to milliseconds), so lock-free deques would buy nothing.
//
// Determinism contract: node results must not depend on execution
// order (each consumer publishes per-node slots and commits them in a
// fixed order after run() returns), and node indices must be a valid
// topological order (every dependency's index is lower than its
// dependent's — the reverse-topological/topological ACG orders the
// consumers schedule satisfy this by construction). Under that
// contract the inline schedule (no pool) runs nodes in index order,
// which is exactly the serial emission order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace fortd {

class ThreadPool;

/// Observability counters of one run() (or the sum of several — see
/// operator+=). Idle time is the stall the barrier-free schedule is
/// meant to eliminate; critical_path bounds the achievable wall time.
struct TaskGraphStats {
  uint64_t executed = 0;     // nodes whose body ran
  uint64_t stolen = 0;       // nodes popped from another slot's deque
  uint64_t cancelled = 0;    // nodes skipped because an ancestor threw
  size_t ready_peak = 0;     // high-water mark of enqueued-ready nodes
  size_t critical_path = 0;  // longest dependency chain (node count)
  double idle_ms = 0.0;      // summed worker wait time inside run()
  double wall_ms = 0.0;      // run() wall clock

  TaskGraphStats& operator+=(const TaskGraphStats& o);
};

class TaskGraph {
public:
  /// A graph of `n` nodes, initially edge-free. Node index doubles as
  /// the order key: exceptions rethrow for the lowest-index failed
  /// node, and the inline schedule runs in index order.
  explicit TaskGraph(size_t n);

  size_t size() const { return nodes_.size(); }

  /// Declare that `dep` must finish before `node` starts. Requires
  /// dep < node (indices are a topological order); duplicate edges are
  /// allowed (a caller with two call sites to one callee) and counted
  /// symmetrically.
  void add_dependency(size_t node, size_t dep);

  /// Run fn(i) for every node, respecting dependencies. Uses `pool`'s
  /// workers plus the caller when given (one parallel_for batch for
  /// the whole graph); runs inline in index order when `pool` is null
  /// or empty. If node bodies throw, their dependents are cancelled
  /// transitively, every other node still runs, and the exception of
  /// the lowest-index failed node is rethrown — the same failure a
  /// serial index-order walk reports first. The graph and pool remain
  /// reusable after a throw (run() may not be called twice on the same
  /// graph, but a fresh graph may reuse the pool).
  void run(ThreadPool* pool, const std::function<void(size_t)>& fn);

  const TaskGraphStats& stats() const { return stats_; }

private:
  struct Node {
    uint32_t pending = 0;  // unfinished dependencies
    bool cancelled = false;
    std::vector<uint32_t> dependents;
  };

  void run_inline(const std::function<void(size_t)>& fn);

  std::vector<Node> nodes_;
  TaskGraphStats stats_;
  bool ran_ = false;
};

}  // namespace fortd
