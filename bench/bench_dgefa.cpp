// E10 — the dgefa case study (paper §1/§9).
//
// LU factorization with partial pivoting, matrix CYCLIC by columns,
// leaf subroutines compiled interprocedurally. Swept over matrix size,
// machine size, and compilation strategy. Expected shape: interprocedural
// compilation dominates run-time resolution by a widening margin;
// speedup over 1 processor grows with N (communication-bound at small N).
#include <benchmark/benchmark.h>

#include "driver/compiler.hpp"
#include "programs.hpp"

namespace {

double g_seq_time_us[512] = {};  // indexed by n, filled by the P=1 run

void run_dgefa(benchmark::State& state, fortd::Strategy strategy) {
  const int64_t n = state.range(0);
  const int procs = static_cast<int>(state.range(1));
  fortd::CodegenOptions opt;
  opt.n_procs = procs;
  opt.strategy = strategy;
  fortd::Compiler compiler(opt);
  fortd::CompileResult r = compiler.compile_source(fortd::bench::dgefa(n));
  fortd::ExecResult last;
  for (auto _ : state) {
    last = fortd::simulate(r.spmd);
    { auto sink = last.sim_time_us; benchmark::DoNotOptimize(sink); }
  }
  state.counters["sim_ms"] = last.sim_time_us / 1000.0;
  state.counters["msgs"] = static_cast<double>(last.messages);
  state.counters["kbytes"] = static_cast<double>(last.bytes) / 1024.0;
  if (strategy == fortd::Strategy::Interprocedural) {
    if (procs == 1 && n < 512) g_seq_time_us[n] = last.sim_time_us;
    if (procs > 1 && n < 512 && g_seq_time_us[n] > 0)
      state.counters["speedup"] = g_seq_time_us[n] / last.sim_time_us;
  }
}

void BM_DgefaInterprocedural(benchmark::State& state) {
  run_dgefa(state, fortd::Strategy::Interprocedural);
}
void BM_DgefaIntraprocedural(benchmark::State& state) {
  run_dgefa(state, fortd::Strategy::Intraprocedural);
}
void BM_DgefaRuntimeResolution(benchmark::State& state) {
  run_dgefa(state, fortd::Strategy::RuntimeResolution);
}

}  // namespace

BENCHMARK(BM_DgefaInterprocedural)
    ->ArgsProduct({{32, 64, 96, 144}, {1, 2, 4, 8}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DgefaIntraprocedural)
    ->ArgsProduct({{32, 64}, {4}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DgefaRuntimeResolution)
    ->ArgsProduct({{32, 64}, {4}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
