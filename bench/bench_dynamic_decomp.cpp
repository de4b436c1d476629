// E7 — dynamic data decomposition optimization (paper Figs. 15/16).
//
// The redistribution program swept over time steps and array size under
// the four optimization levels. Expected shape: data-moving remap counts
// follow 4T (none) -> 2T (live) -> 2 (loop-invariant) -> 1 (array kills),
// with simulated time tracking remap volume.
#include <benchmark/benchmark.h>

#include "driver/compiler.hpp"
#include "programs.hpp"

namespace {

void run_fig15(benchmark::State& state, fortd::DynDecompOpt level) {
  const int64_t n = state.range(0);
  const int64_t steps = state.range(1);
  fortd::CodegenOptions opt;
  opt.n_procs = 4;
  opt.dyn_decomp = level;
  fortd::Compiler compiler(opt);
  fortd::CompileResult r =
      compiler.compile_source(fortd::bench::fig15(n, steps));
  fortd::ExecResult last;
  for (auto _ : state) {
    last = fortd::simulate(r.spmd);
    { auto sink = last.sim_time_us; benchmark::DoNotOptimize(sink); }
  }
  state.counters["sim_ms"] = last.sim_time_us / 1000.0;
  state.counters["remaps"] = static_cast<double>(last.remaps_executed);
  state.counters["remap_kb"] = static_cast<double>(last.remap_bytes) / 1024.0;
  state.counters["eliminated"] = r.spmd.stats.remaps_eliminated_dead +
                                 r.spmd.stats.remaps_coalesced;
  state.counters["hoisted"] = r.spmd.stats.remaps_hoisted;
  state.counters["marked"] = r.spmd.stats.remaps_marked_in_place;
}

void BM_NoOpt(benchmark::State& state) {
  run_fig15(state, fortd::DynDecompOpt::None);
}
void BM_LiveDecomps(benchmark::State& state) {
  run_fig15(state, fortd::DynDecompOpt::Live);
}
void BM_LoopInvariant(benchmark::State& state) {
  run_fig15(state, fortd::DynDecompOpt::LiveInvariant);
}
void BM_ArrayKills(benchmark::State& state) {
  run_fig15(state, fortd::DynDecompOpt::Full);
}

}  // namespace

#define DYN_ARGS \
  ->ArgsProduct({{1024, 8192}, {10, 50}})->Iterations(1)->Unit(benchmark::kMillisecond)

BENCHMARK(BM_NoOpt) DYN_ARGS;
BENCHMARK(BM_LiveDecomps) DYN_ARGS;
BENCHMARK(BM_LoopInvariant) DYN_ARGS;
BENCHMARK(BM_ArrayKills) DYN_ARGS;

BENCHMARK_MAIN();
