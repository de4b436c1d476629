#include "runtime/scheduler.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <stdexcept>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

namespace fortd::runtime {

namespace {

constexpr size_t kStackBytes = size_t{8} << 20;

/// Thrown out of a blocked processor's wait to unwind its stack after a
/// failure or a deadlock elsewhere. Not a std::exception, so nothing on
/// the way out catches it by accident.
struct Cancelled {};

// Sanitizer bookkeeping around each switch: ASan tracks which stack is
// live, TSan which fiber runs.
void asan_start(void** fake_stack, const void* bottom, size_t size) {
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_start_switch_fiber(fake_stack, bottom, size);
#else
  (void)fake_stack, (void)bottom, (void)size;
#endif
}

void asan_finish(void* fake_stack, const void** bottom, size_t* size) {
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(fake_stack, bottom, size);
#else
  (void)fake_stack, (void)bottom, (void)size;
#endif
}

void tsan_switch(void* fiber) {
#if defined(__SANITIZE_THREAD__)
  __tsan_switch_to_fiber(fiber, 0);
#else
  (void)fiber;
#endif
}

}  // namespace

Scheduler::Fiber::~Fiber() {
  if (mapping) munmap(mapping, kStackBytes);
#if defined(__SANITIZE_THREAD__)
  if (tsan_fiber) __tsan_destroy_fiber(tsan_fiber);
#endif
}

void Scheduler::run(int n, const std::function<void(int)>& body) {
  body_ = &body;
  progress_ = 0;
  cancelling_ = false;
  fibers_ = std::vector<Fiber>(static_cast<size_t>(n));
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
#if defined(__SANITIZE_THREAD__)
  tsan_scheduler_ = __tsan_get_current_fiber();
#endif
  for (Fiber& f : fibers_) {
    f.mapping = mmap(nullptr, kStackBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                     -1, 0);
    if (f.mapping == MAP_FAILED) f.mapping = nullptr;
    if (!f.mapping || mprotect(f.mapping, page, PROT_NONE) != 0) {
      fibers_.clear();
      throw std::runtime_error("cannot map a processor stack");
    }
#if defined(__SANITIZE_THREAD__)
    f.tsan_fiber = __tsan_create_fiber(0);
#endif
    getcontext(&f.ctx);
    f.ctx.uc_stack.ss_sp = static_cast<char*>(f.mapping) + page;
    f.ctx.uc_stack.ss_size = kStackBytes - page;
    f.ctx.uc_link = nullptr;
    // makecontext passes int-sized arguments: split `this` in two.
    const uint64_t self = reinterpret_cast<uintptr_t>(this);
    makecontext(&f.ctx, reinterpret_cast<void (*)()>(&Scheduler::entry), 2,
                static_cast<unsigned>(self >> 32), static_cast<unsigned>(self));
  }

  int failed = -1;
  std::exception_ptr outcome;
  for (;;) {
    const uint64_t before = progress_;
    bool unfinished = false;
    for (int p = 0; p < n && failed < 0; ++p) {
      Fiber& f = fibers_[static_cast<size_t>(p)];
      if (f.done) continue;
      resume(p);
      if (f.error) failed = p;
      unfinished |= !f.done;
    }
    if (failed >= 0) {
      outcome = fibers_[static_cast<size_t>(failed)].error;
      break;
    }
    if (!unfinished) break;
    if (progress_ == before) {
      outcome = std::make_exception_ptr(std::runtime_error(describe_deadlock()));
      break;
    }
  }
  // Unwind every processor still suspended, then unmap the stacks.
  cancelling_ = true;
  for (int p = 0; p < n; ++p)
    if (!fibers_[static_cast<size_t>(p)].done) resume(p);
  fibers_.clear();
  if (outcome) std::rethrow_exception(outcome);
}

void Scheduler::entry(unsigned hi, unsigned lo) {
  const uint64_t self = (uint64_t{hi} << 32) | lo;
  reinterpret_cast<Scheduler*>(static_cast<uintptr_t>(self))->fiber_main();
}

void Scheduler::fiber_main() {
  Fiber& f = fibers_[static_cast<size_t>(current_)];
  asan_finish(nullptr, &scheduler_stack_, &scheduler_stack_size_);
  // Catch here, and switch only after leaving the handler: the C++ runtime
  // keeps its stack of caught exceptions per thread, not per fiber.
  if (!cancelling_) {
    try {
      (*body_)(current_);
    } catch (const Cancelled&) {
    } catch (...) {
      f.error = std::current_exception();
    }
  }
  f.done = true;
  ++progress_;
  switch_to_scheduler(f, /*last=*/true);
}

void Scheduler::resume(int p) {
  Fiber& f = fibers_[static_cast<size_t>(p)];
  current_ = p;
  asan_start(&asan_fake_stack_, f.ctx.uc_stack.ss_sp, f.ctx.uc_stack.ss_size);
  tsan_switch(f.tsan_fiber);
  swapcontext(&scheduler_ctx_, &f.ctx);
  asan_finish(asan_fake_stack_, nullptr, nullptr);
  current_ = -1;
}

void Scheduler::suspend(const Blocked& on) {
  Fiber& f = fibers_[static_cast<size_t>(current_)];
  f.blocked = &on;
  switch_to_scheduler(f, /*last=*/false);
  f.blocked = nullptr;
  if (cancelling_) throw Cancelled{};
}

void Scheduler::switch_to_scheduler(Fiber& f, bool last) {
  // A finished fiber passes no fake stack, so ASan frees it.
  asan_start(last ? nullptr : &f.asan_fake_stack, scheduler_stack_,
             scheduler_stack_size_);
  tsan_switch(tsan_scheduler_);
  swapcontext(&f.ctx, &scheduler_ctx_);
  asan_finish(f.asan_fake_stack, &scheduler_stack_, &scheduler_stack_size_);
}

std::string Scheduler::describe_deadlock() const {
  std::string out = "deadlock: no processor can proceed:";
  for (size_t p = 0; p < fibers_.size(); ++p) {
    const Blocked* b = fibers_[p].blocked;
    if (!b) continue;
    out += " P" + std::to_string(p) + " " + b->op;
    if (b->peer >= 0) out += " P" + std::to_string(b->peer);
    out += " of '" + b->array + "' at " + b->loc.str() + ";";
  }
  out.pop_back();
  return out;
}

}  // namespace fortd::runtime
