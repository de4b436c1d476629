// The fiber scheduler that runs every SPMD execution
// (runtime/scheduler.hpp), driven directly: round-robin order by rank,
// exact deadlocks, failure unwinding, stack depth, and many processors.
// Hand-built programs that reach it through both backends are in
// test_extensions.cpp; the example programs, in test_runtime.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/scheduler.hpp"

namespace fortd::runtime {
namespace {

const std::string kX = "x";

/// Counts its own destruction: a processor's frames were unwound.
struct Guard {
  int& destroyed;
  ~Guard() { ++destroyed; }
};

std::string error_of(Scheduler& sched, int n,
                     const std::function<void(int)>& body) {
  try {
    sched.run(n, body);
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

TEST(FiberScheduler, RunsEveryRankToCompletion) {
  Scheduler sched;
  std::vector<int> ran;
  sched.run(5, [&](int p) { ran.push_back(p); });
  EXPECT_EQ(ran, (std::vector<int>{0, 1, 2, 3, 4}));
  sched.run(0, [](int) { ADD_FAILURE() << "no processor to run"; });
}

TEST(FiberScheduler, ResumesRoundRobinByRank) {
  // Each processor logs, arrives at a barrier and logs again. The last
  // arrival passes straight through; the others resume in rank order on
  // the next sweep.
  Scheduler sched;
  std::vector<std::string> log;
  int arrived = 0;
  sched.run(4, [&](int p) {
    log.push_back(std::to_string(p) + "a");
    ++arrived;
    sched.progress();
    sched.wait_until([&] { return arrived == 4; },
                     Blocked{"barrier", -1, kX, {}});
    log.push_back(std::to_string(p) + "b");
  });
  EXPECT_EQ(log, (std::vector<std::string>{"0a", "1a", "2a", "3a", "3b", "0b",
                                           "1b", "2b"}));
}

TEST(FiberScheduler, DeadlockNamesEveryBlockedProcessorAndUnwindsIt) {
  // Three processors each wait on a receive from the next: the first
  // sweep makes no progress, so it is reported after one poll each.
  Scheduler sched;
  int polls = 0;
  int unwound = 0;
  const std::string error = error_of(sched, 3, [&](int p) {
    Guard g{unwound};
    sched.wait_until(
        [&] {
          ++polls;
          return false;
        },
        Blocked{"recv from", (p + 1) % 3, kX, {10 + p, 7}});
    ADD_FAILURE() << "P" << p << " passed a wait that cannot complete";
  });
  EXPECT_EQ(error,
            "deadlock: no processor can proceed: P0 recv from P1 of 'x' at "
            "10:7; P1 recv from P2 of 'x' at 11:7; P2 recv from P0 of 'x' at "
            "12:7");
  EXPECT_EQ(polls, 3);
  EXPECT_EQ(unwound, 3);
}

TEST(FiberScheduler, DeadlockOmitsFinishedProcessors) {
  // P0 finishes, which is progress; then P1 waits at a barrier that P0
  // will never reach and P2 on a send P1 will never take.
  Scheduler sched;
  const std::string a = "a";
  const std::string error = error_of(sched, 3, [&](int p) {
    if (p == 1)
      sched.wait_until([] { return false; }, Blocked{"barrier", -1, a, {5, 3}});
    if (p == 2)
      sched.wait_until([] { return false; },
                       Blocked{"send to", 1, kX, {6, 7}});
  });
  EXPECT_EQ(error,
            "deadlock: no processor can proceed: P1 barrier of 'a' at 5:3; P2 "
            "send to P1 of 'x' at 6:7");
}

TEST(FiberScheduler, SendCountsAsProgress) {
  // The receiver runs before its sender in every sweep. In the first,
  // only the send happens, and the sweep must not read as a deadlock.
  Scheduler sched;
  std::vector<double> mailbox;
  int taken = 0;
  std::vector<std::string> log;
  sched.run(2, [&](int p) {
    if (p == 0) {
      sched.wait_until([&] { return !mailbox.empty(); },
                       Blocked{"recv from", 1, kX, {1, 7}});
      log.push_back("P0 took " + std::to_string(mailbox.back()));
      mailbox.pop_back();
      ++taken;
      sched.progress();
    } else {
      mailbox.push_back(42.0);
      sched.progress();
      log.push_back("P1 posted");
      sched.wait_until([&] { return taken == 1; },
                       Blocked{"send to", 0, kX, {2, 7}});
      log.push_back("P1 returned");
    }
  });
  EXPECT_EQ(log, (std::vector<std::string>{"P1 posted", "P0 took 42.000000",
                                           "P1 returned"}));
}

TEST(FiberScheduler, FailureUnwindsSuspendedProcessorsAndRethrows) {
  // P1 throws while P0 waits for it. Scheduling stops there: P2 and P3
  // never start, P0's wait throws to unwind its frames, and run()
  // rethrows P1's own exception.
  Scheduler sched;
  std::vector<int> started;
  int unwound = 0;
  try {
    sched.run(4, [&](int p) {
      started.push_back(p);
      Guard g{unwound};
      if (p == 1) throw std::out_of_range("P1 failed");
      sched.wait_until([] { return false; },
                       Blocked{"recv from", 1, kX, {3, 7}});
    });
    ADD_FAILURE() << "run() returned";
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ(e.what(), "P1 failed");
  }
  EXPECT_EQ(started, (std::vector<int>{0, 1}));
  EXPECT_EQ(unwound, 2);
}

TEST(FiberScheduler, CancelledProcessorsRunNoFurther) {
  // P2 releases P0's wait and then fails in the same sweep. P0 is not
  // resumed into its code again: its wait throws to unwind it, so its own
  // later failure never happens and P2's is the one reported.
  Scheduler sched;
  bool released = false;
  bool p0_went_on = false;
  const std::string error = error_of(sched, 3, [&](int p) {
    if (p == 0) {
      sched.wait_until([&] { return released; },
                       Blocked{"recv from", 2, kX, {4, 7}});
      p0_went_on = true;
      throw std::runtime_error("P0 failed");
    }
    if (p == 2) {
      released = true;
      sched.progress();
      throw std::runtime_error("P2 failed");
    }
  });
  EXPECT_EQ(error, "P2 failed");
  EXPECT_FALSE(p0_went_on);
}

TEST(FiberScheduler, ExceptionsCaughtInsideProcessorsStayThere) {
  // Every processor throws and catches its own exception, then waits at a
  // barrier outside the handler, three rounds over. No caught exception
  // leaks from one processor's stack to another's.
  Scheduler sched;
  constexpr int kProcs = 4;
  std::vector<int> arrived(3, 0);
  std::vector<std::string> caught;
  sched.run(kProcs, [&](int p) {
    for (int round = 0; round < 3; ++round) {
      try {
        throw std::runtime_error("P" + std::to_string(p) + "." +
                                 std::to_string(round));
      } catch (const std::exception& e) {
        caught.push_back(e.what());
      }
      ++arrived[static_cast<size_t>(round)];
      sched.progress();
      sched.wait_until(
          [&] { return arrived[static_cast<size_t>(round)] == kProcs; },
          Blocked{"barrier", -1, kX, {}});
      EXPECT_EQ(std::current_exception(), nullptr) << "P" << p;
      EXPECT_EQ(std::uncaught_exceptions(), 0) << "P" << p;
    }
  });
  EXPECT_EQ(caught, (std::vector<std::string>{
                        "P0.0", "P1.0", "P2.0", "P3.0", "P3.1", "P0.1",
                        "P1.1", "P2.1", "P2.2", "P3.2", "P0.2", "P1.2"}));
  EXPECT_EQ(std::uncaught_exceptions(), 0);
}

/// Recurse `depth` frames of about 1 KiB each, call `at_bottom` there, and
/// sum every frame's bytes on the way back up.
int64_t deep(int p, int depth, const std::function<void()>& at_bottom) {
  volatile char pad[1024];
  for (size_t i = 0; i < sizeof pad; ++i)
    pad[i] = static_cast<char>(p * 31 + depth + static_cast<int>(i));
  int64_t sum = 0;
  if (depth == 0)
    at_bottom();
  else
    sum = deep(p, depth - 1, at_bottom);
  for (size_t i = 0; i < sizeof pad; ++i) sum += pad[i];
  return sum;
}

TEST(FiberScheduler, SuspendedFramesSurviveDeepRecursion) {
  // Each processor holds about 2 MiB of frames while it waits at a
  // barrier at the bottom; every frame must read back as written.
  constexpr int kProcs = 4;
  constexpr int kDepth = 2000;
  Scheduler sched;
  int arrived = 0;
  std::vector<int64_t> sums(kProcs);
  sched.run(kProcs, [&](int p) {
    sums[static_cast<size_t>(p)] = deep(p, kDepth, [&] {
      ++arrived;
      sched.progress();
      sched.wait_until([&] { return arrived == kProcs; },
                       Blocked{"barrier", -1, kX, {}});
    });
  });
  for (int p = 0; p < kProcs; ++p)
    EXPECT_EQ(sums[static_cast<size_t>(p)], deep(p, kDepth, [] {})) << p;
}

TEST(FiberScheduler, RunsAgainAfterAFailureOrADeadlock) {
  Scheduler sched;
  EXPECT_EQ(error_of(sched, 2,
                     [](int p) {
                       if (p == 1) throw std::runtime_error("first run");
                     }),
            "first run");
  EXPECT_NE(error_of(sched, 2,
                     [&](int p) {
                       sched.wait_until([] { return false; },
                                        Blocked{"recv from", 1 - p, kX, {}});
                     })
                .find("deadlock"),
            std::string::npos);
  int arrived = 0;
  std::vector<int> done;
  sched.run(3, [&](int p) {
    ++arrived;
    sched.progress();
    sched.wait_until([&] { return arrived == 3; },
                     Blocked{"barrier", -1, kX, {}});
    done.push_back(p);
  });
  EXPECT_EQ(done, (std::vector<int>{2, 0, 1}));
}

TEST(FiberScheduler, ManyProcessorsPassATokenAroundARing) {
  // 32 processors hand a token around a ring three times, each send
  // waiting until the next processor took it.
  constexpr int kProcs = 32;
  constexpr int kLaps = 3;
  Scheduler sched;
  std::vector<int> slot(kProcs, -1);  // the token on its way to processor p
  std::vector<int> holders;
  int final_token = -1;
  sched.run(kProcs, [&](int p) {
    const size_t mine = static_cast<size_t>(p);
    const size_t next = static_cast<size_t>((p + 1) % kProcs);
    const int prev = (p + kProcs - 1) % kProcs;
    auto recv = [&] {
      sched.wait_until([&] { return slot[mine] >= 0; },
                       Blocked{"recv from", prev, kX, {}});
      const int token = slot[mine];
      slot[mine] = -1;
      sched.progress();
      holders.push_back(p);
      return token;
    };
    auto send = [&](int token) {
      slot[next] = token + 1;
      sched.progress();
      sched.wait_until([&] { return slot[next] < 0; },
                       Blocked{"send to", static_cast<int>(next), kX, {}});
    };
    if (p == 0) {
      holders.push_back(0);
      send(0);
      for (int lap = 1; lap < kLaps; ++lap) send(recv());
      final_token = recv();
    } else {
      for (int lap = 0; lap < kLaps; ++lap) send(recv());
    }
  });
  EXPECT_EQ(final_token, kLaps * kProcs);
  ASSERT_EQ(holders.size(), static_cast<size_t>(kLaps * kProcs + 1));
  for (size_t i = 0; i < holders.size(); ++i)
    EXPECT_EQ(holders[i], static_cast<int>(i % kProcs)) << i;
}

}  // namespace
}  // namespace fortd::runtime
