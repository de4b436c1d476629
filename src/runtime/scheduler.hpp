// One deterministic scheduler for SPMD execution.
//
// The P processors of a run are stackful fibers on the calling thread,
// resumed round-robin by rank. A processor gives up the thread only inside
// wait_until(), while the operation it is blocked in (a receive, a
// rendezvous send, a remap barrier) cannot complete. Processors share no
// memory, every receive names its source, and a remap reads a peer's copy
// only between two barriers, so every order gives the same values, traffic
// and clocks: round-robin by rank is the only order.
//
// A sweep resumes every unfinished processor once. A sweep in which no
// processor sent, received, reached a barrier or finished, while one has
// not finished, is a deadlock: the shared state can no longer change.
// run() then throws one error naming every blocked processor with its
// operation, peer, array and statement. When a processor throws,
// scheduling stops; each unfinished processor is resumed once more so its
// blocking call throws and its frames are destroyed, and then run()
// rethrows the failure.
//
// Stacks are 8 MiB (the default thread stack) mapped with MAP_NORESERVE
// above a PROT_NONE guard page, so only the pages a processor touches are
// committed.
#pragma once

#include <ucontext.h>

#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "support/diagnostics.hpp"

namespace fortd::runtime {

/// The operation a processor is blocked in, as a deadlock report names it.
struct Blocked {
  const char* op;            // "send to", "recv from" or "barrier"
  int peer;                  // the other processor; -1 for a barrier
  const std::string& array;  // the message's or the remap's array
  SourceLoc loc;             // the statement
};

class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Run body(p) for every rank p in [0, n) to completion. Throws the
  /// first processor failure, or a deadlock error.
  void run(int n, const std::function<void(int)>& body);

  /// Inside body: return once ready() holds, suspending this processor
  /// while it does not.
  template <typename Ready>
  void wait_until(Ready ready, const Blocked& on) {
    while (!ready()) suspend(on);
  }

  /// Inside body: this processor sent, received or reached a barrier.
  void progress() { ++progress_; }

 private:
  struct Fiber {
    Fiber() = default;
    Fiber(const Fiber&) = delete;
    Fiber& operator=(const Fiber&) = delete;
    ~Fiber();

    ucontext_t ctx{};
    void* mapping = nullptr;  // guard page + stack
    bool done = false;
    const Blocked* blocked = nullptr;
    std::exception_ptr error;
    void* asan_fake_stack = nullptr;
    void* tsan_fiber = nullptr;
  };

  static void entry(unsigned hi, unsigned lo);
  void fiber_main();
  void resume(int p);
  void suspend(const Blocked& on);
  /// Leave the current fiber for the scheduler; `last` when it finished.
  void switch_to_scheduler(Fiber& f, bool last);
  std::string describe_deadlock() const;

  const std::function<void(int)>* body_ = nullptr;
  std::vector<Fiber> fibers_;
  int current_ = -1;
  uint64_t progress_ = 0;
  bool cancelling_ = false;

  ucontext_t scheduler_ctx_{};
  void* asan_fake_stack_ = nullptr;
  const void* scheduler_stack_ = nullptr;
  size_t scheduler_stack_size_ = 0;
  void* tsan_scheduler_ = nullptr;
};

}  // namespace fortd::runtime
