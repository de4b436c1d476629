// E2 — compile-time code vs run-time resolution (paper Figs. 2 vs 3).
//
// The stencil of Fig. 1 compiled interprocedurally and under run-time
// resolution, swept over problem size and machine size. Reported counters
// are simulated metrics: sim_ms (execution time on the modeled iPSC/860),
// msgs, kbytes. The paper's claim: run-time resolution is slower by an
// amount that grows with N (per-element ownership tests + element
// messages vs one vectorized message).
#include <benchmark/benchmark.h>

#include "driver/compiler.hpp"
#include "programs.hpp"

namespace {

void run_stencil(benchmark::State& state, fortd::Strategy strategy) {
  const int64_t n = state.range(0);
  const int procs = static_cast<int>(state.range(1));
  fortd::CodegenOptions opt;
  opt.n_procs = procs;
  opt.strategy = strategy;
  fortd::Compiler compiler(opt);
  fortd::CompileResult r =
      compiler.compile_source(fortd::bench::stencil1d(n));
  fortd::ExecResult last;
  for (auto _ : state) {
    last = fortd::simulate(r.spmd);
    { auto sink = last.sim_time_us; benchmark::DoNotOptimize(sink); }
  }
  state.counters["sim_ms"] = last.sim_time_us / 1000.0;
  state.counters["msgs"] = static_cast<double>(last.messages);
  state.counters["kbytes"] = static_cast<double>(last.bytes) / 1024.0;
}

void BM_CompileTime(benchmark::State& state) {
  run_stencil(state, fortd::Strategy::Interprocedural);
}

void BM_RuntimeResolution(benchmark::State& state) {
  run_stencil(state, fortd::Strategy::RuntimeResolution);
}

}  // namespace

BENCHMARK(BM_CompileTime)
    ->ArgsProduct({{256, 1024, 4096, 16384}, {4, 8, 16}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RuntimeResolution)
    ->ArgsProduct({{256, 1024, 4096, 16384}, {4, 8, 16}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
