// E9 — recompilation analysis (paper §4/§8).
//
// A call chain of M procedures; one leaf-adjacent procedure is edited.
// Without recompilation analysis the whole program recompiles (M+1
// procedures); with it only the edited procedure — plus callers whose
// interprocedural inputs actually changed — recompiles. The procedure
// cache decides this, so BM_RecompilationAnalysis times a warm compile
// of the edit and counts what it regenerated.
//
// BM_ColdProcessRecompile extends the study across process boundaries:
// a fresh Compiler per iteration (empty memory tiers — a new compiler
// process) shares one persistent compilation database, so every
// procedure and summary is served from disk instead of being
// regenerated. BM_ColdProcessNoCache is the same shape without the
// database: the full from-scratch compile a cold process otherwise pays.
#include <benchmark/benchmark.h>

#include <filesystem>

#include "driver/compiler.hpp"
#include "programs.hpp"

namespace {

void BM_RecompilationAnalysis(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  std::string before = fortd::bench::call_chain(depth, 256);
  // Interface-neutral edit of the middle procedure's arithmetic.
  std::string after = before;
  std::string needle = "a(i) = 0.5*a(i+" +
                       std::to_string(1 + (depth / 2) % 2) + ")";
  size_t pos = after.find(needle);
  size_t count = 0;
  // The needle appears once per level with matching parity; edit the one
  // belonging to level depth/2 by replacing the (depth/2)-th occurrence.
  size_t target = 0;
  for (size_t at = after.find(needle); at != std::string::npos;
       at = after.find(needle, at + 1), ++count)
    if (count == static_cast<size_t>(depth / 4)) target = at;
  pos = target;
  after.replace(pos, needle.size(),
                "a(i) = 0.25*a(i+" +
                    std::to_string(1 + (depth / 2) % 2) + ")");

  std::vector<std::string> recompiled;
  for (auto _ : state) {
    state.PauseTiming();
    fortd::Compiler compiler{fortd::CodegenOptions{}};
    compiler.compile_source(before);
    state.ResumeTiming();
    recompiled = compiler.compile_source(after).regenerated;
    { auto sink = recompiled.size(); benchmark::DoNotOptimize(sink); }
  }
  state.counters["recompiled"] = static_cast<double>(recompiled.size());
  state.counters["total_procs"] = static_cast<double>(depth + 1);
  state.counters["saved"] =
      static_cast<double>(depth + 1 - static_cast<int>(recompiled.size()));
}

void BM_BlindRecompilation(benchmark::State& state) {
  // Baseline: no recompilation analysis — every procedure recompiles
  // after any edit. (The "cost" is a full compile.)
  const int depth = static_cast<int>(state.range(0));
  std::string src = fortd::bench::call_chain(depth, 256);
  for (auto _ : state) {
    fortd::Compiler compiler{fortd::CodegenOptions{}};
    auto r = compiler.compile_source(src);
    { auto sink = r.spmd.stats.loops_bounds_reduced; benchmark::DoNotOptimize(sink); }
  }
  state.counters["recompiled"] = static_cast<double>(depth + 1);
  state.counters["total_procs"] = static_cast<double>(depth + 1);
}

void BM_ColdProcessRecompile(benchmark::State& state) {
  namespace fs = std::filesystem;
  const int width = static_cast<int>(state.range(0));
  const std::string src = fortd::bench::fan_out(width, 256);
  const fs::path dir = fs::temp_directory_path() /
                       ("fortd_bench_cold_" + std::to_string(width));
  fs::remove_all(dir);
  fortd::CacheOptions cache{dir.string()};
  {
    // Populate the database once; not part of the measured loop.
    fortd::Compiler warmup{fortd::CodegenOptions{}, {}, {}, cache};
    warmup.compile_source(src);
  }
  int generated = 0, disk_hits = 0;
  for (auto _ : state) {
    fortd::Compiler compiler{fortd::CodegenOptions{}, {}, {}, cache};
    auto r = compiler.compile_source(src);
    generated = r.stats.generated;
    disk_hits = r.stats.disk_hits;
    { auto sink = r.spmd.stats.loops_bounds_reduced; benchmark::DoNotOptimize(sink); }
  }
  state.counters["generated"] = static_cast<double>(generated);
  state.counters["disk_hits"] = static_cast<double>(disk_hits);
  state.counters["total_procs"] = static_cast<double>(width + 1);
  fs::remove_all(dir);
}

void BM_ColdProcessNoCache(benchmark::State& state) {
  // Baseline for BM_ColdProcessRecompile: a fresh Compiler with no
  // persistent tier pays the full compile every time.
  const int width = static_cast<int>(state.range(0));
  const std::string src = fortd::bench::fan_out(width, 256);
  for (auto _ : state) {
    fortd::Compiler compiler{fortd::CodegenOptions{}};
    auto r = compiler.compile_source(src);
    { auto sink = r.spmd.stats.loops_bounds_reduced; benchmark::DoNotOptimize(sink); }
  }
  state.counters["total_procs"] = static_cast<double>(width + 1);
}

}  // namespace

BENCHMARK(BM_RecompilationAnalysis)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BlindRecompilation)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ColdProcessRecompile)
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ColdProcessNoCache)
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
