// E1/E3/E5/E6 — figure regeneration harness.
//
// Compiles the paper's Figure 1 and Figure 4 programs and reports the
// structural quantities each figure demonstrates (message placement,
// vectorization, cloning, reduced loops, overlap extents). Run any bench
// binary with --help for google-benchmark options; the structural golden
// checks live in tests/test_codegen.cpp.
#include <benchmark/benchmark.h>

#include "codegen/spmd_printer.hpp"
#include "driver/compiler.hpp"
#include "programs.hpp"

namespace {

void BM_Figure2_CompiledStencil(benchmark::State& state) {
  fortd::CodegenOptions opt;
  opt.n_procs = 4;
  fortd::Compiler compiler(opt);
  fortd::CompileResult r =
      compiler.compile_source(fortd::bench::stencil1d(100));
  fortd::ExecResult last;
  for (auto _ : state) {
    last = fortd::simulate(r.spmd);
    { auto sink = last.sim_time_us; benchmark::DoNotOptimize(sink); }
  }
  double overlap = 0, local = 0;
  for (const auto& info : r.spmd.storage.at("f1"))
    if (info.array == "x") {
      overlap = static_cast<double>(info.overlap_hi);
      local = static_cast<double>(info.local_extent);
    }
  state.counters["msgs"] = static_cast<double>(last.messages);      // 3
  state.counters["local_extent"] = local;                           // 25
  state.counters["overlap"] = overlap;                              // 5
  state.counters["sim_us"] = last.sim_time_us;
}

void BM_Figure10_InterproceduralFig4(benchmark::State& state) {
  fortd::CodegenOptions opt;
  opt.n_procs = 4;
  fortd::Compiler compiler(opt);
  fortd::CompileResult r = compiler.compile_source(fortd::bench::fig4(100, 100));
  fortd::ExecResult last;
  for (auto _ : state) {
    last = fortd::simulate(r.spmd);
    { auto sink = last.sim_time_us; benchmark::DoNotOptimize(sink); }
  }
  state.counters["clones"] = r.spmd.stats.clones_created;            // 1
  state.counters["msgs"] = static_cast<double>(last.messages);       // 3
  state.counters["reduced_loops"] = r.spmd.stats.loops_bounds_reduced;
  state.counters["delayed_comms"] = r.spmd.stats.delayed_comms_exported;
  state.counters["sim_us"] = last.sim_time_us;
}

void BM_Figure12_ImmediateFig4(benchmark::State& state) {
  fortd::CodegenOptions opt;
  opt.n_procs = 4;
  opt.strategy = fortd::Strategy::Intraprocedural;
  fortd::Compiler compiler(opt);
  fortd::CompileResult r = compiler.compile_source(fortd::bench::fig4(100, 100));
  fortd::ExecResult last;
  for (auto _ : state) {
    last = fortd::simulate(r.spmd);
    { auto sink = last.sim_time_us; benchmark::DoNotOptimize(sink); }
  }
  state.counters["msgs"] = static_cast<double>(last.messages);       // 300
  state.counters["guards"] = r.spmd.stats.guards_inserted;
  state.counters["sim_us"] = last.sim_time_us;
}

}  // namespace

BENCHMARK(BM_Figure2_CompiledStencil)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Figure10_InterproceduralFig4)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Figure12_ImmediateFig4)->Iterations(1)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
