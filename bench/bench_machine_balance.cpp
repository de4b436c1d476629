// E14 (extension) — machine-balance sensitivity.
//
// The paper's numbers are tied to the iPSC/860's very high message
// startup (alpha ~ 100+ us). This study re-runs the dgefa case study and
// the Fig. 4 program under a low-latency machine (alpha/10) to show which
// conclusions are balance-dependent: the interprocedural-vs-run-time gap
// persists (it is mostly redundant work), while the small-N speedup
// crossover moves to much smaller matrices.
#include <benchmark/benchmark.h>

#include "driver/compiler.hpp"
#include "programs.hpp"

namespace {

void run_dgefa_with(benchmark::State& state, const fortd::CostModel& cm) {
  const int64_t n = state.range(0);
  const int procs = static_cast<int>(state.range(1));
  fortd::CodegenOptions opt;
  opt.n_procs = procs;
  fortd::Compiler compiler(opt);
  fortd::CompileResult r = compiler.compile_source(fortd::bench::dgefa(n));
  fortd::ExecResult last;
  for (auto _ : state) {
    last = fortd::simulate(r.spmd, cm);
    { auto sink = last.sim_time_us; benchmark::DoNotOptimize(sink); }
  }
  state.counters["sim_ms"] = last.sim_time_us / 1000.0;
  state.counters["msgs"] = static_cast<double>(last.messages);
}

void BM_DgefaHighLatency(benchmark::State& state) {
  run_dgefa_with(state, fortd::CostModel::ipsc860());
}

void BM_DgefaLowLatency(benchmark::State& state) {
  run_dgefa_with(state, fortd::CostModel::low_latency());
}

void BM_Fig4AlphaSweep(benchmark::State& state) {
  // Delayed vs immediate message counts are alpha-independent, but the
  // *time* gap scales directly with alpha: sweep it.
  const double alpha = static_cast<double>(state.range(0));
  const bool delayed = state.range(1) != 0;
  fortd::CostModel cm = fortd::CostModel::ipsc860();
  cm.alpha_us = alpha;
  cm.send_overhead_us = alpha / 3.0;
  cm.recv_overhead_us = alpha / 3.0;
  fortd::CodegenOptions opt;
  opt.n_procs = 4;
  opt.strategy = delayed ? fortd::Strategy::Interprocedural
                         : fortd::Strategy::Intraprocedural;
  fortd::Compiler compiler(opt);
  fortd::CompileResult r = compiler.compile_source(fortd::bench::fig4(128, 128));
  fortd::ExecResult last;
  for (auto _ : state) {
    last = fortd::simulate(r.spmd, cm);
    { auto sink = last.sim_time_us; benchmark::DoNotOptimize(sink); }
  }
  state.counters["sim_ms"] = last.sim_time_us / 1000.0;
  state.counters["msgs"] = static_cast<double>(last.messages);
  state.counters["alpha_us"] = alpha;
}

}  // namespace

BENCHMARK(BM_DgefaHighLatency)
    ->ArgsProduct({{64, 96}, {1, 4, 8}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DgefaLowLatency)
    ->ArgsProduct({{64, 96}, {1, 4, 8}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig4AlphaSweep)
    ->ArgsProduct({{14, 136, 1360}, {0, 1}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
