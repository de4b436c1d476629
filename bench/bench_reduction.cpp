// E15 (extension) — reduction recognition (collective communication).
//
// A global sum over a distributed vector. Recognized reductions compile
// to per-processor partial sums plus one allreduce (2(P-1) scalar
// messages); run-time resolution broadcasts every element. The gap is the
// strongest of any pattern because the unrecognized form serializes the
// whole vector through messages.
#include <benchmark/benchmark.h>

#include "driver/compiler.hpp"

namespace {

std::string sum_source(int64_t n) {
  std::string N = std::to_string(n);
  return "      program p\n      real x(" + N +
         ")\n      real total\n      integer i\n"
         "      distribute x(block)\n"
         "      do i = 1, " + N + "\n        x(i) = i*1.0\n      enddo\n"
         "      total = 0.0\n"
         "      do i = 1, " + N + "\n        total = total + x(i)\n      enddo\n"
         "      end\n";
}

void run_sum(benchmark::State& state, fortd::Strategy strategy) {
  const int64_t n = state.range(0);
  const int procs = static_cast<int>(state.range(1));
  fortd::CodegenOptions opt;
  opt.n_procs = procs;
  opt.strategy = strategy;
  fortd::Compiler compiler(opt);
  fortd::CompileResult r = compiler.compile_source(sum_source(n));
  fortd::ExecResult last;
  for (auto _ : state) {
    last = fortd::simulate(r.spmd);
    { auto sink = last.sim_time_us; benchmark::DoNotOptimize(sink); }
  }
  state.counters["sim_ms"] = last.sim_time_us / 1000.0;
  state.counters["msgs"] = static_cast<double>(last.messages);
  // Sanity: the collective must produce the exact sum.
  state.counters["total_ok"] =
      last.gather_scalar("total") == 0.5 * static_cast<double>(n) * (n + 1)
          ? 1
          : 0;
}

void BM_RecognizedReduction(benchmark::State& state) {
  run_sum(state, fortd::Strategy::Interprocedural);
}

void BM_RuntimeResolvedReduction(benchmark::State& state) {
  run_sum(state, fortd::Strategy::RuntimeResolution);
}

}  // namespace

BENCHMARK(BM_RecognizedReduction)
    ->ArgsProduct({{1024, 8192}, {2, 4, 8, 16}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RuntimeResolvedReduction)
    ->ArgsProduct({{1024}, {2, 4, 8}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
