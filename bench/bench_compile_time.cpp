// E12 — compiler throughput and the single-pass claim.
//
// Wall-clock time of each compilation phase (parse+bind, interprocedural
// propagation, code generation) as the program grows, demonstrating that
// compilation visits each procedure once (near-linear scaling in the
// number of procedures). Includes the message-vectorization ablation.
#include <benchmark/benchmark.h>

#include "frontend/parser.hpp"
#include "driver/compiler.hpp"
#include "support/thread_pool.hpp"
#include "programs.hpp"

namespace {

void BM_ParseAndBind(benchmark::State& state) {
  std::string src =
      fortd::bench::call_chain(static_cast<int>(state.range(0)), 256);
  for (auto _ : state) {
    fortd::BoundProgram bp = fortd::parse_and_bind(src);
    { auto sink = bp.ast.procedures.size(); benchmark::DoNotOptimize(sink); }
  }
  state.counters["procs"] = static_cast<double>(state.range(0) + 1);
}

void BM_InterproceduralPropagation(benchmark::State& state) {
  std::string src =
      fortd::bench::call_chain(static_cast<int>(state.range(0)), 256);
  for (auto _ : state) {
    state.PauseTiming();
    fortd::BoundProgram bp = fortd::parse_and_bind(src);
    state.ResumeTiming();
    fortd::IpaContext ctx = fortd::run_ipa(bp);
    { auto sink = ctx.acg.call_sites().size(); benchmark::DoNotOptimize(sink); }
  }
}

void BM_CodeGeneration(benchmark::State& state) {
  std::string src =
      fortd::bench::call_chain(static_cast<int>(state.range(0)), 256);
  for (auto _ : state) {
    // Rebuild the bound program + interprocedural solution per iteration
    // (untimed): sharing one across iterations lets any codegen-side
    // mutation of shared analysis state leak between iterations and skew
    // the measurement.
    state.PauseTiming();
    fortd::BoundProgram bp = fortd::parse_and_bind(src);
    fortd::IpaContext ctx = fortd::run_ipa(bp);
    fortd::CodegenOptions opt;
    opt.n_procs = 8;
    state.ResumeTiming();
    fortd::SpmdProgram spmd = fortd::generate_spmd(bp, ctx, opt);
    { auto sink = spmd.ast.procedures.size(); benchmark::DoNotOptimize(sink); }
  }
}

void BM_ParallelCodegen(benchmark::State& state) {
  // Parallel code generation over a 32-leaf fan-out program: every leaf
  // is independent, so the leaves scale with jobs.
  const int jobs = static_cast<int>(state.range(0));
  std::string src = fortd::bench::fan_out(32, 512);
  fortd::BoundProgram bp = fortd::parse_and_bind(src);
  fortd::IpaContext ctx = fortd::run_ipa(bp);
  fortd::CodegenOptions opt;
  opt.n_procs = 8;
  opt.jobs = jobs;
  for (auto _ : state) {
    fortd::SpmdProgram spmd = fortd::generate_spmd(bp, ctx, opt);
    { auto sink = spmd.ast.procedures.size(); benchmark::DoNotOptimize(sink); }
  }
  state.counters["jobs"] = jobs;
  state.counters["procs"] = 33;
}

void BM_ParallelIpa(benchmark::State& state) {
  // Parallel interprocedural analysis: summaries are embarrassingly
  // parallel, side effects / reaching run over the ACG dependency graph. shape 0 = 32-leaf fan-out (one wide level), shape 1 =
  // dgefa (serial idamax chain feeding a wide daxpy level).
  const int jobs = static_cast<int>(state.range(0));
  const bool shaped = state.range(1) != 0;
  std::string src = shaped ? fortd::bench::dgefa(64)
                           : fortd::bench::fan_out(32, 512);
  fortd::ThreadPool pool(jobs - 1);
  for (auto _ : state) {
    state.PauseTiming();
    fortd::BoundProgram bp = fortd::parse_and_bind(src);
    state.ResumeTiming();
    fortd::IpaContext ctx =
        fortd::run_ipa(bp, {}, jobs > 1 ? &pool : nullptr);
    { auto sink = ctx.summaries.size(); benchmark::DoNotOptimize(sink); }
  }
  state.counters["jobs"] = jobs;
}

void BM_IncrementalClone(benchmark::State& state) {
  // Cloning fixed point over a hub with 4 conflicting decompositions plus
  // 24 untouched leaves: the incremental rounds re-analyze only the new
  // clones and the retargeted main program, carrying the leaves over.
  const bool incremental = state.range(0) != 0;
  std::string src = fortd::bench::cloning_fanout(24, 4, 64);
  fortd::IpaOptions opts;
  opts.incremental = incremental;
  fortd::IpaStats stats;
  for (auto _ : state) {
    state.PauseTiming();
    fortd::BoundProgram bp = fortd::parse_and_bind(src);
    state.ResumeTiming();
    fortd::IpaContext ctx = fortd::run_ipa(bp, opts);
    stats = ctx.stats;
    { auto sink = ctx.clones_created; benchmark::DoNotOptimize(sink); }
  }
  state.counters["rounds"] = stats.rounds;
  state.counters["sum_computed"] = stats.summaries_computed;
  state.counters["sum_reused"] = stats.summaries_reused;
  state.counters["fx_reused"] = stats.effects_reused;
  state.counters["rd_reused"] = stats.reaching_reused;
}

void BM_CachedRecompile(benchmark::State& state) {
  // Second compile() of a 32-leaf program with exactly one leaf body
  // edited: the procedure cache regenerates only the edited leaf (its
  // exported interface is unchanged, so no caller is invalidated).
  std::string base = fortd::bench::fan_out(32, 512);
  std::string edited = fortd::bench::fan_out(32, 512, /*edited_leaf=*/7);
  int regenerated = -1;
  int summaries_computed = -1;
  for (auto _ : state) {
    state.PauseTiming();
    fortd::CodegenOptions opt;
    opt.n_procs = 8;
    fortd::Compiler compiler(opt);
    compiler.compile_source(base);  // warm the caches (untimed)
    state.ResumeTiming();
    auto r = compiler.compile_source(edited);
    regenerated = static_cast<int>(r.regenerated.size());
    summaries_computed = r.stats.summaries_computed;
    { auto sink = r.spmd.ast.procedures.size(); benchmark::DoNotOptimize(sink); }
  }
  state.counters["regenerated"] = regenerated;
  state.counters["sum_computed"] = summaries_computed;
  state.counters["procs"] = 33;
}

void BM_FullCompile(benchmark::State& state) {
  std::string src =
      fortd::bench::call_chain(static_cast<int>(state.range(0)), 256);
  for (auto _ : state) {
    fortd::Compiler compiler{fortd::CodegenOptions{}};
    auto r = compiler.compile_source(src);
    { auto sink = r.spmd.ast.procedures.size(); benchmark::DoNotOptimize(sink); }
  }
  state.counters["procs"] = static_cast<double>(state.range(0) + 1);
}

void BM_VectorizationAblation(benchmark::State& state) {
  // Message vectorization off: every shift message instantiates at its
  // deepest legal point. Counter contrast against the default.
  const bool vectorize = state.range(0) != 0;
  std::string src = fortd::bench::fig4(128, 128);
  fortd::CodegenOptions opt;
  opt.n_procs = 4;
  opt.strategy = vectorize ? fortd::Strategy::Interprocedural
                           : fortd::Strategy::Intraprocedural;
  fortd::Compiler compiler(opt);
  fortd::CompileResult r = compiler.compile_source(src);
  fortd::ExecResult last;
  for (auto _ : state) {
    last = fortd::simulate(r.spmd);
    { auto sink = last.messages; benchmark::DoNotOptimize(sink); }
  }
  state.counters["msgs"] = static_cast<double>(last.messages);
  state.counters["sim_ms"] = last.sim_time_us / 1000.0;
}

}  // namespace

BENCHMARK(BM_ParseAndBind)->Arg(4)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_InterproceduralPropagation)->Arg(4)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CodeGeneration)->Arg(4)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ParallelCodegen)->ArgName("jobs")->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_ParallelIpa)->ArgNames({"jobs", "shape"})
    ->Args({1, 0})->Args({2, 0})->Args({4, 0})->Args({1, 1})->Args({4, 1})
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_IncrementalClone)->ArgName("incremental")->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CachedRecompile)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FullCompile)->Arg(4)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_VectorizationAblation)->Arg(0)->Arg(1)->Iterations(1)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
