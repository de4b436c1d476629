// Execution backends head to head: the rendezvous runtime (`threads`) vs
// the logical-clock simulator vs the serial reference, on the same
// compiled SPMD programs at P=4. Both parallel backends run the four
// processors as fibers on one thread under one scheduler: the simulator
// buffers sends and charges a CostModel, while `threads` makes each send
// wait until its receiver took the message (a fiber switch per message)
// and charges nothing. Both report identical message/byte counts (the
// harness asserts this in tests/test_runtime.cpp) — what this benchmark
// adds is the *time* comparison of the two transports against the
// serial evaluator.
#include <benchmark/benchmark.h>

#include "driver/compiler.hpp"
#include "frontend/parser.hpp"
#include "programs.hpp"
#include "runtime/backend.hpp"

namespace {

/// Jacobi relaxation, the paper's simplest pipeline: a 1-D ping-pong
/// stencil with BLOCK edges exchanged every sweep.
std::string jacobi(int64_t n, int64_t steps) {
  std::string N = std::to_string(n);
  std::string T = std::to_string(steps);
  return R"(
      program jacobi
      real u()" + N + R"()
      real unew()" + N + R"()
      integer i, t
      distribute u(block)
      distribute unew(block)
      do i = 1, )" + N + R"(
        u(i) = modp(i*13, 97) * 1.0
      enddo
      do t = 1, )" + T + R"(
        do i = 2, )" + N + R"( - 1
          unew(i) = 0.5 * (u(i-1) + u(i+1))
        enddo
        do i = 2, )" + N + R"( - 1
          u(i) = unew(i)
        enddo
      enddo
      end
)";
}

std::string program_for(int64_t which, int64_t n, int64_t steps) {
  return which == 0 ? jacobi(n, steps) : fortd::bench::fig15(n, steps);
}

void run_backend(benchmark::State& state, fortd::BackendKind kind) {
  const int64_t which = state.range(0);
  const int64_t n = state.range(1);
  const int64_t steps = state.range(2);
  fortd::CodegenOptions opt;
  opt.n_procs = 4;
  fortd::Compiler compiler(opt);
  fortd::CompileResult r =
      compiler.compile_source(program_for(which, n, steps));
  fortd::ExecResult last;
  for (auto _ : state) {
    last = fortd::make_backend(kind)->execute(r.spmd);
    { auto sink = last.messages; benchmark::DoNotOptimize(sink); }
  }
  state.counters["msgs"] = static_cast<double>(last.messages);
  state.counters["bytes"] = static_cast<double>(last.bytes);
  state.counters["remap_bytes"] = static_cast<double>(last.remap_bytes);
  if (last.sim_time_us > 0) state.counters["sim_ms"] = last.sim_time_us / 1000.0;
}

void BM_ThreadedRun(benchmark::State& state) {
  run_backend(state, fortd::BackendKind::Threaded);
}

void BM_SimulatedRun(benchmark::State& state) {
  run_backend(state, fortd::BackendKind::Simulator);
}

void BM_SerialRun(benchmark::State& state) {
  const int64_t which = state.range(0);
  const int64_t n = state.range(1);
  const int64_t steps = state.range(2);
  fortd::SourceProgram ast =
      fortd::parse_program(program_for(which, n, steps));
  fortd::ExecResult last;
  for (auto _ : state) {
    last = fortd::run_serial_reference(ast);
    { auto sink = last.wall_ms; benchmark::DoNotOptimize(sink); }
  }
}

}  // namespace

// range(0): 0 = jacobi (stencil edge exchange), 1 = fig15 (block<->cyclic
// redistribution traffic). range(1): array extent. range(2): time steps.
#define FORTD_EXEC_ARGS \
  ->ArgsProduct({{0, 1}, {256, 1024}, {20}})->Unit(benchmark::kMillisecond)

BENCHMARK(BM_ThreadedRun) FORTD_EXEC_ARGS;
BENCHMARK(BM_SimulatedRun) FORTD_EXEC_ARGS;
BENCHMARK(BM_SerialRun) FORTD_EXEC_ARGS;

BENCHMARK_MAIN();
