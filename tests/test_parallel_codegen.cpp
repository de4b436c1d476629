// Parallel code generation and the content-hashed procedure
// cache:
//   * serial (jobs=1) and parallel (jobs=4) schedules print byte-identical
//     SPMD programs across every workload generator and example source,
//   * the Compiler's cache regenerates only edited procedures (and their
//     callers when the exported interface changed) on recompiles,
//   * ACG wavefront levels respect callee-before-caller,
//   * ThreadPool and DiagnosticEngine worker-safety primitives.
#include <gtest/gtest.h>

#include <atomic>

#include "../bench/programs.hpp"
#include "codegen/spmd_printer.hpp"
#include "driver/compiler.hpp"
#include "support/thread_pool.hpp"

namespace fortd {
namespace {

// Example sources (examples/jacobi.cpp, examples/stencil2d.cpp — kept in
// sync by eye; they exercise shift vectorization and cloning shapes the
// generators do not).
const char* kJacobi = R"(
      program jacobi
      real u(256)
      real unew(256)
      integer i, t
      distribute u(block)
      distribute unew(block)
      do i = 1, 256
        u(i) = modp(i*13, 97) * 1.0
      enddo
      do t = 1, 20
        do i = 2, 255
          unew(i) = 0.5 * (u(i-1) + u(i+1))
        enddo
        do i = 2, 255
          u(i) = unew(i)
        enddo
      enddo
      end
)";

const char* kStencil2d = R"(
      program p1
      real x(100,100)
      real y(100,100)
      integer i, j
      align y(i,j) with x(j,i)
      distribute x(block,:)
      do i = 1, 100
        do j = 1, 100
          x(i,j) = i + 0.01*j
          y(i,j) = j + 0.01*i
        enddo
      enddo
      do i = 1, 100
        call f1(x, i)
      enddo
      do j = 1, 100
        call f1(y, j)
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

std::string compile_with_jobs(const std::string& src, int jobs,
                              int n_procs = 4) {
  CodegenOptions opt;
  opt.n_procs = n_procs;
  opt.jobs = jobs;
  Compiler compiler(opt);
  CompileResult r = compiler.compile_source(src);
  return print_spmd(r.spmd);
}

// ---------------------------------------------------------------------------
// Determinism: parallel output is byte-identical to serial output
// ---------------------------------------------------------------------------

class ParallelDeterminism
    : public ::testing::TestWithParam<std::pair<const char*, std::string>> {};

TEST_P(ParallelDeterminism, SerialAndParallelPrintIdentically) {
  const std::string& src = GetParam().second;
  std::string serial = compile_with_jobs(src, 1);
  std::string parallel = compile_with_jobs(src, 4);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, ParallelDeterminism,
    ::testing::Values(
        std::make_pair("stencil1d", bench::stencil1d(64)),
        std::make_pair("fig4", bench::fig4(32, 8)),
        std::make_pair("fig15", bench::fig15(64, 4)),
        std::make_pair("dgefa", bench::dgefa(16)),
        std::make_pair("call_chain", bench::call_chain(12, 64)),
        std::make_pair("cloning_hub", bench::cloning_hub(4, 16)),
        std::make_pair("fan_out", bench::fan_out(16, 64)),
        std::make_pair("jacobi", std::string(kJacobi)),
        std::make_pair("stencil2d", std::string(kStencil2d))),
    [](const auto& info) { return info.param.first; });

TEST(ParallelDeterminism, ManyJobValuesAgreeOnFanOut) {
  std::string src = bench::fan_out(32, 128);
  std::string serial = compile_with_jobs(src, 1, 8);
  for (int jobs : {2, 3, 4, 8, 16})
    EXPECT_EQ(serial, compile_with_jobs(src, jobs, 8)) << "jobs=" << jobs;
}

// ---------------------------------------------------------------------------
// Procedure cache: hit/miss accounting across recompiles
// ---------------------------------------------------------------------------

TEST(CompilationCache, SecondCompileHitsEverything) {
  std::string src = bench::fan_out(8, 64);
  Compiler compiler;
  CompileResult r1 = compiler.compile_source(src);
  EXPECT_EQ(r1.stats.cache_hits, 0);
  EXPECT_EQ(r1.stats.cache_misses, 9);  // 8 leaves + program
  EXPECT_EQ(r1.stats.generated, 9);

  CompileResult r2 = compiler.compile_source(src);
  EXPECT_EQ(r2.stats.cache_hits, 9);
  EXPECT_EQ(r2.stats.cache_misses, 0);
  EXPECT_EQ(r2.stats.generated, 0);
  EXPECT_TRUE(r2.regenerated.empty());
  EXPECT_EQ(print_spmd(r1.spmd), print_spmd(r2.spmd));
}

TEST(CompilationCache, EditedBodyRegeneratesOnlyThatProcedure) {
  // The edit changes leaf3's stencil coefficient: its structural hash
  // changes but its exported interface (same shift, same formals) does
  // not, so no caller is invalidated — §8's recompilation-test behaviour.
  Compiler compiler;
  compiler.compile_source(bench::fan_out(8, 64));
  CompileResult r = compiler.compile_source(bench::fan_out(8, 64, 3));
  EXPECT_EQ(r.stats.generated, 1);
  EXPECT_EQ(r.stats.cache_hits, 8);
  ASSERT_EQ(r.regenerated.size(), 1u);
  EXPECT_EQ(r.regenerated[0], "leaf3");

  // The cached result must be byte-identical to a cold compile.
  Compiler cold;
  EXPECT_EQ(print_spmd(r.spmd),
            print_spmd(cold.compile_source(bench::fan_out(8, 64, 3)).spmd));
}

TEST(CompilationCache, InterfaceChangingEditInvalidatesCaller) {
  // Changing the leaf's shift distance changes its exported communication
  // (pending shift event / overlap demand), so the caller must regenerate
  // too — but only the edited procedure and its direct caller.
  const char* before = R"(
      program p
      real x(64)
      integer i
      distribute x(block)
      do i = 1, 64
        x(i) = i*1.0
      enddo
      call leaf(x)
      end
      subroutine leaf(a)
      real a(64)
      integer i
      do i = 1, 62
        a(i) = 0.5*a(i+1)
      enddo
      end
)";
  const char* after = R"(
      program p
      real x(64)
      integer i
      distribute x(block)
      do i = 1, 64
        x(i) = i*1.0
      enddo
      call leaf(x)
      end
      subroutine leaf(a)
      real a(64)
      integer i
      do i = 1, 62
        a(i) = 0.5*a(i+2)
      enddo
      end
)";
  Compiler compiler;
  compiler.compile_source(before);
  CompileResult r = compiler.compile_source(after);
  EXPECT_EQ(r.stats.generated, 2);
  EXPECT_EQ(r.stats.cache_hits, 0);
}

TEST(CompilationCache, DifferentOptionsDoNotShareEntries) {
  std::string src = bench::stencil1d(64);
  CodegenOptions opt;
  opt.n_procs = 4;
  Compiler compiler(opt);
  compiler.compile_source(src);
  // Same Compiler-owned cache, different n_procs would be a different
  // digest — emulate by checking jobs does NOT change the digest while
  // the cache still hits across schedules.
  CodegenOptions par = opt;
  par.jobs = 4;
  Compiler parallel(par);
  CompileResult r1 = parallel.compile_source(src);
  EXPECT_EQ(r1.stats.cache_hits, 0);  // separate Compiler, fresh cache
  CompileResult r2 = parallel.compile_source(src);
  EXPECT_EQ(r2.stats.generated, 0);   // schedule change can't miss
}

TEST(CompilationCache, SerialAndParallelRecompilesAgree) {
  CodegenOptions opt;
  opt.jobs = 4;
  Compiler compiler(opt);
  compiler.compile_source(bench::fan_out(8, 64));
  CompileResult warm = compiler.compile_source(bench::fan_out(8, 64, 5));
  EXPECT_EQ(warm.stats.generated, 1);
  EXPECT_EQ(print_spmd(warm.spmd),
            compile_with_jobs(bench::fan_out(8, 64, 5), 1));
}

// ---------------------------------------------------------------------------
// Wavefront levels
// ---------------------------------------------------------------------------

TEST(WavefrontLevels, DgefaRespectsCalleeBeforeCaller) {
  BoundProgram bp = parse_and_bind(bench::dgefa(16));
  IpaContext ctx = run_ipa(bp);
  auto levels = ctx.acg.wavefront_levels();
  ASSERT_FALSE(levels.empty());

  // Each procedure appears in exactly one level.
  std::map<int, int> level_of;
  for (size_t l = 0; l < levels.size(); ++l)
    for (int idx : levels[l]) {
      EXPECT_EQ(level_of.count(idx), 0u);
      level_of[idx] = static_cast<int>(l);
    }
  EXPECT_EQ(level_of.size(), bp.ast.procedures.size());

  // Every call edge goes from a strictly higher level to a lower one.
  for (const CallSiteInfo& site : ctx.acg.call_sites()) {
    int caller = ctx.acg.procedure_index(site.caller);
    int callee = ctx.acg.procedure_index(site.callee);
    ASSERT_GE(caller, 0);
    ASSERT_GE(callee, 0);
    EXPECT_GT(level_of.at(caller), level_of.at(callee))
        << site.caller << " -> " << site.callee;
  }

  // dgefa shape: the four BLAS leaves at level 0, main above them.
  EXPECT_EQ(levels[0].size(), 4u);
  int main_idx = ctx.acg.procedure_index("main");
  EXPECT_EQ(level_of.at(main_idx), 1);
}

TEST(WavefrontLevels, ConcatenationIsAReverseTopologicalOrder) {
  BoundProgram bp = parse_and_bind(bench::call_chain(10, 32));
  IpaContext ctx = run_ipa(bp);
  std::vector<int> flat;
  for (const auto& level : ctx.acg.wavefront_levels())
    for (int idx : level) flat.push_back(idx);
  // A chain has singleton levels: the flattening *is* the reverse
  // topological order.
  EXPECT_EQ(flat, ctx.acg.reverse_topological_indices());
}

TEST(WavefrontLevels, IndexOrdersMatchNameOrders) {
  BoundProgram bp = parse_and_bind(bench::fan_out(6, 32));
  IpaContext ctx = run_ipa(bp);
  auto names = ctx.acg.reverse_topological_order();
  auto indices = ctx.acg.reverse_topological_indices();
  ASSERT_EQ(names.size(), indices.size());
  for (size_t i = 0; i < names.size(); ++i)
    EXPECT_EQ(bp.ast.procedures[static_cast<size_t>(indices[i])]->name,
              names[i]);
}

// ---------------------------------------------------------------------------
// Worker-safety primitives
// ---------------------------------------------------------------------------

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> counts(257);
  for (auto& c : counts) c = 0;
  pool.parallel_for(counts.size(), [&](size_t i) { ++counts[i]; });
  for (auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int round = 0; round < 20; ++round)
    pool.parallel_for(10, [&](size_t) { ++total; });
  EXPECT_EQ(total.load(), 200);
}

TEST(ThreadPool, RethrowsLowestIndexException) {
  ThreadPool pool(4);
  for (int attempt = 0; attempt < 8; ++attempt) {
    try {
      pool.parallel_for(64, [&](size_t i) {
        if (i == 7 || i == 50) throw std::runtime_error(std::to_string(i));
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "7");
    }
  }
}

TEST(Diagnostics, OrderedSortsByProcedureIndex) {
  DiagnosticEngine diags;
  diags.warning({1, 1}, "from worker 2", 2);
  diags.warning({2, 1}, "from worker 0", 0);
  diags.note({3, 1}, "front-end");  // default order_key -1
  diags.warning({4, 1}, "from worker 0 again", 0);
  auto ordered = diags.ordered();
  ASSERT_EQ(ordered.size(), 4u);
  EXPECT_EQ(ordered[0].message, "front-end");
  EXPECT_EQ(ordered[1].message, "from worker 0");
  EXPECT_EQ(ordered[2].message, "from worker 0 again");
  EXPECT_EQ(ordered[3].message, "from worker 2");
  EXPECT_EQ(diags.warning_count(), 3);
}

// ---------------------------------------------------------------------------
// CompilerStats plumbing
// ---------------------------------------------------------------------------

TEST(CompilerStats, ReportsPhasesAndSchedule) {
  CodegenOptions opt;
  opt.jobs = 4;
  Compiler compiler(opt);
  CompileResult r = compiler.compile_source(bench::fan_out(8, 64));
  EXPECT_EQ(r.stats.procedures, 9);
  EXPECT_EQ(r.stats.wavefront_levels, 2);
  EXPECT_EQ(r.stats.jobs, 4);
  EXPECT_GE(r.stats.total_ms, 0.0);
  EXPECT_EQ(r.stats.generated + r.stats.cache_hits, r.stats.procedures);
  EXPECT_EQ(compiler.last_stats().procedures, r.stats.procedures);
  EXPECT_EQ(compiler.cache().size(), 9u);
}

}  // namespace
}  // namespace fortd
