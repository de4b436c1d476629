// End-to-end integration tests: whole Fortran D programs compiled under
// every strategy and run on varying machine sizes, with results checked
// against a single-processor oracle execution. This is the system-level
// correctness property behind every benchmark: all strategies and all
// machine sizes compute the same values.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "driver/compiler.hpp"
#include "example_programs.hpp"

namespace fortd {
namespace {

struct ProgramCase {
  const char* name;
  const char* source;
  const char* result_array;
  DecompSpec final_spec;
};

DecompSpec spec1(DistKind k) {
  DecompSpec s;
  s.dists = {DistSpec{k, 0}};
  return s;
}

DecompSpec spec2(DistKind a, DistKind b) {
  DecompSpec s;
  s.dists = {DistSpec{a, 0}, DistSpec{b, 0}};
  return s;
}

std::vector<ProgramCase> programs() {
  std::vector<ProgramCase> out;
  out.push_back({"block_stencil", R"(
      program p
      real x(120)
      integer i
      distribute x(block)
      do i = 1, 120
        x(i) = i * 0.5
      enddo
      do i = 1, 115
        x(i) = 0.25*x(i+5) + 1.0
      enddo
      end
)", "x", spec1(DistKind::Block)});

  out.push_back({"stencil_through_call", R"(
      program p
      real x(96)
      integer i
      distribute x(block)
      do i = 1, 96
        x(i) = i * 1.0
      enddo
      call sweep(x)
      call sweep(x)
      end
      subroutine sweep(a)
      real a(96)
      integer i
      do i = 1, 93
        a(i) = 0.5*a(i+3)
      enddo
      end
)", "x", spec1(DistKind::Block)});

  out.push_back({"cyclic_scale", R"(
      program p
      real x(100)
      integer i
      distribute x(cyclic)
      do i = 1, 100
        x(i) = i * 1.0
      enddo
      do i = 1, 100
        x(i) = 3.0 * x(i)
      enddo
      end
)", "x", spec1(DistKind::Cyclic)});

  out.push_back({"column_pivot_pattern", R"(
      program p
      real a(24,24)
      integer i, j, k
      distribute a(:,cyclic)
      do j = 1, 24
        do i = 1, 24
          a(i,j) = modp(i*5 + j*11, 7) + 1
        enddo
      enddo
      do k = 1, 23
        do j = k+1, 24
          call update(a, k, j, 24)
        enddo
      enddo
      end
      subroutine update(a, k, j, n)
      real a(24,24)
      integer k, j, n, i
      do i = k+1, n
        a(i,j) = a(i,j) + 0.001 * a(i,k)
      enddo
      end
)", "a", spec2(DistKind::None, DistKind::Cyclic)});

  out.push_back({"reduction_scalar", R"(
      program p
      real a(16,16)
      real total
      integer i, j, k
      distribute a(:,block)
      do j = 1, 16
        do i = 1, 16
          a(i,j) = i + j*0.5
        enddo
      enddo
      total = 0.0
      do k = 1, 16
        call colsum(a, k, 16, total)
      enddo
      end
      subroutine colsum(a, k, n, total)
      real a(16,16)
      integer k, n, i
      real total
      do i = 1, n
        total = total + a(i,k)
      enddo
      end
)", "a", spec2(DistKind::None, DistKind::Block)});

  out.push_back({"flow_carried_recurrence", R"(
      program p
      real x(64)
      integer i
      distribute x(block)
      do i = 1, 64
        x(i) = i*1.0
      enddo
      call prefix(x)
      end
      subroutine prefix(a)
      real a(64)
      integer i
      do i = 2, 64
        a(i) = a(i) + a(i-1)
      enddo
      end
)", "x", spec1(DistKind::Block)});

  out.push_back({"global_sum_then_scale", R"(
      program p
      real x(80)
      real total
      integer i
      distribute x(block)
      do i = 1, 80
        x(i) = 1.0
      enddo
      total = 0.0
      do i = 1, 80
        total = total + x(i)
      enddo
      do i = 1, 80
        x(i) = x(i) * total
      enddo
      end
)", "x", spec1(DistKind::Block)});

  out.push_back({"redistribution", R"(
      program p
      real x(64)
      integer i, k
      distribute x(block)
      do i = 1, 64
        x(i) = i*1.0
      enddo
      do k = 1, 3
        call bump(x)
      enddo
      end
      subroutine bump(x)
      real x(64)
      integer i
      distribute x(cyclic)
      do i = 1, 64
        x(i) = x(i) + 1.0
      enddo
      end
)", "x", spec1(DistKind::Block)});
  return out;
}

struct IntegrationCase {
  ProgramCase program;
  Strategy strategy;
  int procs;
};

std::string case_name(const ::testing::TestParamInfo<IntegrationCase>& info) {
  const char* strat = info.param.strategy == Strategy::Interprocedural ? "inter"
                      : info.param.strategy == Strategy::Intraprocedural
                          ? "intra"
                          : "runtime";
  return std::string(info.param.program.name) + "_" + strat + "_p" +
         std::to_string(info.param.procs);
}

class StrategyEquivalence : public ::testing::TestWithParam<IntegrationCase> {};

TEST_P(StrategyEquivalence, MatchesSingleProcessorOracle) {
  const auto& c = GetParam();

  // Oracle: one processor, interprocedural (equivalent to sequential).
  CodegenOptions oracle_opt;
  oracle_opt.n_procs = 1;
  Compiler oracle(oracle_opt);
  ExecResult expect = simulate(oracle.compile_source(c.program.source).spmd);
  auto want = expect.gather(c.program.result_array, c.program.final_spec);

  CodegenOptions opt;
  opt.n_procs = c.procs;
  opt.strategy = c.strategy;
  Compiler compiler(opt);
  ExecResult run = simulate(compiler.compile_source(c.program.source).spmd);
  auto got = run.gather(c.program.result_array, c.program.final_spec);

  ASSERT_EQ(got.size(), want.size());
  double max_err = 0.0;
  for (size_t i = 0; i < got.size(); ++i)
    max_err = std::max(max_err, std::fabs(got[i] - want[i]));
  EXPECT_LT(max_err, 1e-9);
}

std::vector<IntegrationCase> make_cases() {
  std::vector<IntegrationCase> cases;
  for (const auto& prog : programs())
    for (Strategy s : {Strategy::Interprocedural, Strategy::Intraprocedural,
                       Strategy::RuntimeResolution})
      for (int p : {2, 4, 7})
        cases.push_back({prog, s, p});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, StrategyEquivalence,
                         ::testing::ValuesIn(make_cases()), case_name);

// ---------------------------------------------------------------------------
// Strategy performance ordering: the paper's headline claims.
// ---------------------------------------------------------------------------

TEST(StrategyOrdering, RuntimeResolutionIsSlowest) {
  const char* src = programs()[1].source;  // stencil through a call
  auto time_of = [&](Strategy s) {
    CodegenOptions opt;
    opt.n_procs = 4;
    opt.strategy = s;
    Compiler compiler(opt);
    return simulate(compiler.compile_source(src).spmd);
  };
  ExecResult inter = time_of(Strategy::Interprocedural);
  ExecResult runtime = time_of(Strategy::RuntimeResolution);
  EXPECT_LT(inter.sim_time_us, runtime.sim_time_us);
  // Run-time resolution sends an element message per nonlocal access; the
  // compiled code sends one vectorized message per boundary (the ratio is
  // the shift width here, and grows with it).
  EXPECT_GT(runtime.messages, inter.messages);
}

TEST(StrategyOrdering, InterproceduralBeatsIntraproceduralOnCalls) {
  // Figure 4 program: the caller-loop vectorization is the whole game.
  const char* src = R"(
      program p1
      real x(100,100)
      integer i
      distribute x(block,:)
      do i = 1, 100
        call f1(x, i)
      enddo
      end
      subroutine f1(z, i)
      real z(100,100)
      integer i, k
      do k = 1, 95
        z(k,i) = 0.5*z(k+5,i)
      enddo
      end
)";
  auto run_of = [&](Strategy s) {
    CodegenOptions opt;
    opt.n_procs = 4;
    opt.strategy = s;
    Compiler compiler(opt);
    return simulate(compiler.compile_source(src).spmd);
  };
  ExecResult inter = run_of(Strategy::Interprocedural);
  ExecResult intra = run_of(Strategy::Intraprocedural);
  EXPECT_EQ(inter.messages, 3);
  EXPECT_EQ(intra.messages, 300);
  EXPECT_LT(inter.sim_time_us, intra.sim_time_us);
}

TEST(Scaling, ComputeBoundProblemSpeedsUpWithProcessors) {
  const char* src = R"(
      program p
      real x(4096)
      integer i, t
      distribute x(block)
      do i = 1, 4096
        x(i) = i*1.0
      enddo
      do t = 1, 5
        do i = 1, 4091
          x(i) = 0.2*x(i+5) + 0.8*x(i)
        enddo
      enddo
      end
)";
  auto time_at = [&](int procs) {
    CodegenOptions opt;
    opt.n_procs = procs;
    Compiler compiler(opt);
    return simulate(compiler.compile_source(src).spmd).sim_time_us;
  };
  double t1 = time_at(1);
  double t4 = time_at(4);
  double t8 = time_at(8);
  EXPECT_LT(t4, t1 / 2.0);
  EXPECT_LT(t8, t4);
}

// ---------------------------------------------------------------------------
// Array bounds the binder cannot evaluate
// ---------------------------------------------------------------------------

std::string replace_once(std::string s, const std::string& from,
                         const std::string& to) {
  s.replace(s.find(from), from.size(), to);
  return s;
}

struct BoundCase {
  const char* name;
  std::string source;
  const char* bound;  // the name the diagnostic must mention
};

std::vector<BoundCase> unevaluable_bound_cases() {
  return {
      {"undeclared_in_main",
       replace_once(examples::kStencil2d, "real x(100,100)",
                    "real x(return100,100)"),
       "return100"},
      {"variable_in_main", R"(
      program p
      integer n
      real x(n,100)
      integer i
      distribute x(block,:)
      do i = 1, 100
        x(1,i) = i
      enddo
      end
)",
       "'n'"},
      {"undeclared_in_subroutine", R"(
      program p
      real x(100)
      call s(x)
      end

      subroutine s(a)
      real a(bogus)
      a(1) = 1.0
      end
)",
       "bogus"},
  };
}

TEST(ArrayBounds, UnevaluableBoundIsACompileErrorNamingIt) {
  for (const BoundCase& c : unevaluable_bound_cases()) {
    try {
      Compiler().compile_source(c.source);
      ADD_FAILURE() << c.name << ": compiled";
    } catch (const CompileError& e) {
      EXPECT_NE(std::string(e.what()).find(c.bound), std::string::npos)
          << c.name << ": " << e.what();
    }
  }
}

TEST(ArrayBounds, UnevaluableBoundExitsOneThroughFortdc) {
  namespace fs = std::filesystem;
  for (const BoundCase& c : unevaluable_bound_cases()) {
    const fs::path path =
        fs::path(::testing::TempDir()) /
        ("fortd_bound_" + std::string(c.name) + "_" +
         std::to_string(::getpid()) + ".fd");
    std::ofstream(path) << c.source;
    const std::string cmd = std::string(FORTD_FORTDC_PATH) +
                            " -p 2 -s inter " + path.string() +
                            " > /dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << c.name << " died on a signal";
    EXPECT_EQ(WEXITSTATUS(status), 1) << c.name;
    fs::remove(path);
  }
}

TEST(ArrayBounds, AdjustableBoundsOfFormalsAndCommonStillCompile) {
  // F77 adjustable arrays: a subroutine may bound an array by its formals
  // and by COMMON variables.
  Compiler().compile_source(R"(
      program p
      real x(30)
      integer n
      common /sizes/ n
      n = 30
      call f(x, 1, 30)
      end

      subroutine f(a, lo, hi)
      real a(lo:hi)
      real b(n)
      integer lo, hi, n
      common /sizes/ n
      a(hi) = a(lo) + 100.0
      end
)");
}

}  // namespace
}  // namespace fortd
