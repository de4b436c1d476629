// E4 — delayed vs immediate instantiation (paper Figs. 10 vs 12, §5.5).
//
// The Figure 4 program: a subroutine called inside caller loops under two
// reaching decompositions. Delayed instantiation vectorizes the shift
// message out of the caller's loop (1 message per neighbor pair) and
// replaces guards with reduced caller-loop bounds; immediate
// instantiation sends one message per invocation. The message-count
// ratio equals the caller trip count.
#include <benchmark/benchmark.h>

#include "driver/compiler.hpp"
#include "programs.hpp"

namespace {

void run_fig4(benchmark::State& state, fortd::Strategy strategy) {
  const int64_t n = state.range(0);
  const int procs = static_cast<int>(state.range(1));
  fortd::CodegenOptions opt;
  opt.n_procs = procs;
  opt.strategy = strategy;
  fortd::Compiler compiler(opt);
  fortd::CompileResult r = compiler.compile_source(fortd::bench::fig4(n, n));
  fortd::ExecResult last;
  for (auto _ : state) {
    last = fortd::simulate(r.spmd);
    { auto sink = last.sim_time_us; benchmark::DoNotOptimize(sink); }
  }
  state.counters["sim_ms"] = last.sim_time_us / 1000.0;
  state.counters["msgs"] = static_cast<double>(last.messages);
  state.counters["kbytes"] = static_cast<double>(last.bytes) / 1024.0;
  state.counters["guards"] = r.spmd.stats.guards_inserted;
  state.counters["reduced_loops"] = r.spmd.stats.loops_bounds_reduced;
}

void BM_Delayed(benchmark::State& state) {
  run_fig4(state, fortd::Strategy::Interprocedural);
}

void BM_Immediate(benchmark::State& state) {
  run_fig4(state, fortd::Strategy::Intraprocedural);
}

}  // namespace

BENCHMARK(BM_Delayed)
    ->ArgsProduct({{64, 128, 256}, {4, 8}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Immediate)
    ->ArgsProduct({{64, 128, 256}, {4, 8}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
