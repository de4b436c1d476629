// E13 (extension) — inlining vs interprocedural compilation (§4, §10).
//
// ParaScope supports inlining as the classical way to expose calling
// context. For the Fig. 4 program, inlining the callee into the caller
// lets purely intraprocedural machinery match interprocedural quality —
// at the price of program growth and the loss of separate compilation
// (every edit recompiles the whole inlined program). The counters report
// generated message counts (equal when both succeed) and program sizes.
#include <benchmark/benchmark.h>

#include "ipa/inlining.hpp"
#include "driver/compiler.hpp"
#include "programs.hpp"

namespace {

int count_statements(const fortd::SourceProgram& prog) {
  int n = 0;
  for (const auto& p : prog.procedures)
    fortd::walk_stmts(p->body, [&](const fortd::Stmt&) { ++n; });
  return n;
}

void BM_Interprocedural(benchmark::State& state) {
  std::string src = fortd::bench::fig4(128, 128);
  fortd::CodegenOptions opt;
  opt.n_procs = 4;
  fortd::Compiler compiler(opt);
  fortd::CompileResult r = compiler.compile_source(src);
  fortd::ExecResult last;
  for (auto _ : state) {
    last = fortd::simulate(r.spmd);
    { auto sink = last.messages; benchmark::DoNotOptimize(sink); }
  }
  state.counters["msgs"] = static_cast<double>(last.messages);
  state.counters["sim_ms"] = last.sim_time_us / 1000.0;
  state.counters["statements"] = count_statements(r.spmd.ast);
}

void BM_FullyInlined(benchmark::State& state) {
  std::string src = fortd::bench::fig4(128, 128);
  // Inline everything first, then compile (no interprocedural machinery
  // is needed: all context is local).
  fortd::BoundProgram bp = fortd::parse_and_bind(src);
  fortd::InlineStats istats = fortd::inline_all(bp);
  fortd::IpaContext ctx = fortd::run_ipa(bp);
  fortd::CodegenOptions opt;
  opt.n_procs = 4;
  fortd::SpmdProgram spmd = fortd::generate_spmd(bp, ctx, opt);
  fortd::ExecResult last;
  for (auto _ : state) {
    last = fortd::simulate(spmd);
    { auto sink = last.messages; benchmark::DoNotOptimize(sink); }
  }
  state.counters["msgs"] = static_cast<double>(last.messages);
  state.counters["sim_ms"] = last.sim_time_us / 1000.0;
  state.counters["statements"] = count_statements(spmd.ast);
  state.counters["inlined_calls"] = istats.calls_inlined;
}

void BM_InlineGrowth(benchmark::State& state) {
  // Program growth with call-site fan-out: inlining duplicates the callee
  // body at every site; separate compilation keeps one copy.
  const int sites = static_cast<int>(state.range(0));
  std::string src = "      program p\n      real x(64)\n      integer i\n";
  src += "      distribute x(block)\n";
  for (int c = 0; c < sites; ++c) src += "      call work(x)\n";
  src += "      end\n";
  src +=
      "      subroutine work(a)\n      real a(64)\n      integer i\n"
      "      do i = 1, 60\n        a(i) = 0.5*a(i+4)\n      enddo\n"
      "      do i = 1, 64\n        a(i) = a(i) + 1.0\n      enddo\n"
      "      end\n";
  int inlined_stmts = 0, separate_stmts = 0;
  for (auto _ : state) {
    fortd::BoundProgram bp = fortd::parse_and_bind(src);
    separate_stmts = count_statements(bp.ast);
    fortd::inline_all(bp);
    inlined_stmts = count_statements(bp.ast);
    { auto sink = inlined_stmts; benchmark::DoNotOptimize(sink); }
  }
  state.counters["separate_stmts"] = separate_stmts;
  state.counters["inlined_stmts"] = inlined_stmts;
}

}  // namespace

BENCHMARK(BM_Interprocedural)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FullyInlined)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_InlineGrowth)->Arg(4)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
