// Machine simulator tests: cost model, the SPMD interpreter (values,
// control flow, calls by reference, intrinsics), and whole-machine runs.
#include <gtest/gtest.h>

#include "driver/compiler.hpp"

namespace fortd {
namespace {

TEST(CostModel, WireTimeAndBroadcastDepth) {
  CostModel cm = CostModel::ipsc860();
  EXPECT_DOUBLE_EQ(cm.wire_time(0), cm.alpha_us);
  EXPECT_DOUBLE_EQ(cm.wire_time(100), cm.alpha_us + 100 * cm.beta_us_per_byte);
  EXPECT_EQ(cm.bcast_depth(1), 1);
  EXPECT_EQ(cm.bcast_depth(2), 1);
  EXPECT_EQ(cm.bcast_depth(4), 2);
  EXPECT_EQ(cm.bcast_depth(5), 3);
  EXPECT_EQ(cm.bcast_depth(16), 4);
}

// ---------------------------------------------------------------------------
// Interpreter semantics through single-processor runs
// ---------------------------------------------------------------------------

ExecResult run_program(const char* src, int procs = 1) {
  CodegenOptions opt;
  opt.n_procs = procs;
  return compile_and_run(src, opt);
}

TEST(Interpreter, IntegerArithmeticTruncates) {
  ExecResult r = run_program(R"(
      program p
      integer a, b
      a = 7 / 2
      b = -7 / 2
      end
)");
  EXPECT_DOUBLE_EQ(r.gather_scalar("a"), 3.0);
  EXPECT_DOUBLE_EQ(r.gather_scalar("b"), -3.0);
}

TEST(Interpreter, LoopWithStepAndZeroTrip) {
  ExecResult r = run_program(R"(
      program p
      integer i, count
      count = 0
      do i = 1, 10, 3
        count = count + 1
      enddo
      do i = 5, 4
        count = count + 100
      enddo
      end
)");
  EXPECT_DOUBLE_EQ(r.gather_scalar("count"), 4.0);
}

TEST(Interpreter, IfElseAndLogicalOperators) {
  ExecResult r = run_program(R"(
      program p
      integer a, b
      a = 5
      if ((a .gt. 0) .and. (a .lt. 10)) then
        b = 1
      else
        b = 2
      endif
      end
)");
  EXPECT_DOUBLE_EQ(r.gather_scalar("b"), 1.0);
}

TEST(Interpreter, CallByReferenceScalarsAndArrays) {
  ExecResult r = run_program(R"(
      program p
      real x(10)
      integer n
      n = 3
      call setall(x, n)
      end
      subroutine setall(a, m)
      real a(10)
      integer m, i
      do i = 1, 10
        a(i) = m * 1.0
      enddo
      m = 7
      end
)");
  EXPECT_DOUBLE_EQ(r.gather_scalar("n"), 7.0);  // out-parameter written back
  auto x = r.gather("x");
  EXPECT_DOUBLE_EQ(x[0], 3.0);
  EXPECT_DOUBLE_EQ(x[9], 3.0);
}

TEST(Interpreter, ExpressionActualIsCopyIn) {
  ExecResult r = run_program(R"(
      program p
      integer n
      n = 1
      call f(n + 1)
      end
      subroutine f(m)
      integer m
      m = 99
      end
)");
  EXPECT_DOUBLE_EQ(r.gather_scalar("n"), 1.0);  // caller unchanged
}

TEST(Interpreter, CommonBlocksShareStorage) {
  ExecResult r = run_program(R"(
      program p
      real buf(5)
      integer tag
      common /shared/ buf, tag
      call producer()
      end
      subroutine producer()
      real buf(5)
      integer tag
      common /shared/ buf, tag
      buf(3) = 12.5
      tag = 4
      end
)");
  auto buf = r.gather("buf");
  EXPECT_DOUBLE_EQ(buf[2], 12.5);
  EXPECT_DOUBLE_EQ(r.gather_scalar("tag"), 4.0);
}

TEST(Interpreter, IntrinsicFunctions) {
  ExecResult r = run_program(R"(
      program p
      integer a, b, c
      real s
      a = min(3, max(7, 5))
      b = modp(0 - 3, 4)
      c = mod(10, 3)
      s = sqrt(16.0) + abs(0.0 - 2.0)
      end
)");
  EXPECT_DOUBLE_EQ(r.gather_scalar("a"), 3.0);
  EXPECT_DOUBLE_EQ(r.gather_scalar("b"), 1.0);
  EXPECT_DOUBLE_EQ(r.gather_scalar("c"), 1.0);
  EXPECT_DOUBLE_EQ(r.gather_scalar("s"), 6.0);
}

TEST(Interpreter, ReturnStatement) {
  ExecResult r = run_program(R"(
      program p
      integer a
      a = 1
      call f(a)
      end
      subroutine f(a)
      integer a
      a = 2
      return
      a = 3
      end
)");
  EXPECT_DOUBLE_EQ(r.gather_scalar("a"), 2.0);
}

TEST(Interpreter, ParameterizedArrayBounds) {
  // Fig. 14 style: array bounds from formal parameters.
  ExecResult r = run_program(R"(
      program p
      real x(30)
      integer i
      do i = 1, 30
        x(i) = i * 1.0
      enddo
      call f(x, 1, 30)
      end
      subroutine f(a, lo, hi)
      real a(lo:hi)
      integer lo, hi
      a(hi) = a(lo) + 100.0
      end
)");
  auto x = r.gather("x");
  EXPECT_DOUBLE_EQ(x[29], 101.0);
}

// ---------------------------------------------------------------------------
// Whole-machine behaviour
// ---------------------------------------------------------------------------

TEST(Machine, ClockAdvancesWithComputation) {
  ExecResult small = run_program(R"(
      program p
      real x(10)
      integer i
      do i = 1, 10
        x(i) = i*2.0
      enddo
      end
)");
  ExecResult big = run_program(R"(
      program p
      real x(1000)
      integer i
      do i = 1, 1000
        x(i) = i*2.0
      enddo
      end
)");
  EXPECT_GT(big.sim_time_us, small.sim_time_us);
}

TEST(Machine, MessageTimingDominatedByLatency) {
  // One 5-element shift at P=2: time >= alpha.
  const char* src = R"(
      program p
      real x(100)
      integer i
      distribute x(block)
      do i = 1, 95
        x(i) = x(i+5)
      enddo
      end
)";
  CodegenOptions opt;
  opt.n_procs = 2;
  ExecResult r = compile_and_run(src, opt);
  EXPECT_EQ(r.messages, 1);
  EXPECT_GE(r.sim_time_us, CostModel::ipsc860().alpha_us);
}

TEST(Machine, PerProcStatsPopulated) {
  CodegenOptions opt;
  opt.n_procs = 4;
  ExecResult r = compile_and_run(R"(
      program p
      real x(100)
      integer i
      distribute x(block)
      do i = 1, 100
        x(i) = 1.0
      enddo
      end
)", opt);
  ASSERT_EQ(r.per_proc.size(), 4u);
  for (const auto& st : r.per_proc) {
    EXPECT_GT(st.iterations, 0);
    EXPECT_GT(st.clock_us, 0.0);
  }
}

TEST(Machine, LowLatencyModelIsFaster) {
  const char* src = R"(
      program p
      real x(100)
      integer i
      distribute x(block)
      do i = 1, 95
        x(i) = x(i+5)
      enddo
      end
)";
  CodegenOptions opt;
  opt.n_procs = 4;
  Compiler compiler(opt);
  CompileResult r = compiler.compile_source(src);
  ExecResult slow = simulate(r.spmd, CostModel::ipsc860());
  ExecResult fast = simulate(r.spmd, CostModel::low_latency());
  EXPECT_LT(fast.sim_time_us, slow.sim_time_us);
}

TEST(Machine, DeterministicAcrossRuns) {
  CodegenOptions opt;
  opt.n_procs = 4;
  Compiler compiler(opt);
  CompileResult r = compiler.compile_source(R"(
      program p
      real x(64)
      integer i
      distribute x(cyclic)
      do i = 1, 64
        x(i) = i*1.0
      enddo
      end
)");
  ExecResult a = simulate(r.spmd);
  ExecResult b = simulate(r.spmd);
  EXPECT_EQ(a.sim_time_us, b.sim_time_us);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.gather("x"), b.gather("x"));
}

}  // namespace
}  // namespace fortd
