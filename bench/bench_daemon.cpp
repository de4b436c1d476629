// E15 — compile-as-a-service (fortdd).
//
// The daemon's pitch is that a *resident* compiler beats a fresh process
// even when that process has a warm on-disk cache: the socket round trip
// plus hot in-memory caches (resident per-option-set Compilers with
// their procedure/summary caches) versus re-reading and re-deserializing
// everything from the ContentStore. Three points bound it:
//
//   BM_WarmDaemonCompile     full COMPILE round trip (connect + HELLO +
//                            request + streamed reply) against a warm
//                            daemon: the source parsed again, 0
//                            summaries computed, 0 procedures
//                            regenerated, everything else from memory,
//   BM_ColdProcessRecompile  what fortdc without -server pays per
//                            invocation: a fresh Compiler (new process
//                            image) over a warm on-disk store — disk-warm
//                            but memory-cold, every artifact
//                            re-deserialized,
//   BM_LocalWarmCompile      one resident in-process Compiler compiled
//                            repeatedly: the daemon's compile cost with
//                            the socket subtracted (the protocol tax is
//                            the gap to BM_WarmDaemonCompile).
#include <benchmark/benchmark.h>

#include <filesystem>

#include "driver/compiler.hpp"
#include "programs.hpp"
#include "service/client.hpp"
#include "service/compile_service.hpp"

namespace {

namespace fs = std::filesystem;

std::string scratch_dir(const std::string& tag) {
  fs::path dir = fs::temp_directory_path() / ("fortd_bench_daemon_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

void BM_WarmDaemonCompile(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  const std::string src = fortd::bench::fan_out(width, 256);
  const std::string dir = scratch_dir("warm_" + std::to_string(width));

  fortd::service::ServiceOptions options;
  options.cache_dir = dir;
  options.jobs = 2;
  fortd::service::CompileService daemon(options);
  std::string err;
  if (!daemon.start(&err)) {
    state.SkipWithError(("daemon failed to start: " + err).c_str());
    return;
  }
  fortd::service::ClientOptions copt;
  copt.port = daemon.port();
  fortd::service::CompileClient client(copt);
  fortd::remote::CompileOptionsWire wire;
  {
    // Warm the session once; not part of the measured loop.
    std::string reason;
    if (!client.compile(src, wire, &reason)) {
      state.SkipWithError(("warmup compile failed: " + reason).c_str());
      return;
    }
  }

  uint64_t generated = 0;
  for (auto _ : state) {
    std::string reason;
    auto r = client.compile(src, wire, &reason);
    if (!r) {
      state.SkipWithError(reason.c_str());
      break;
    }
    generated = r->generated;
    { auto sink = r->spmd.size(); benchmark::DoNotOptimize(sink); }
  }
  state.counters["generated"] = static_cast<double>(generated);
  daemon.drain();
  daemon.stop();
  fs::remove_all(dir);
}

void BM_ColdProcessRecompile(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  const std::string src = fortd::bench::fan_out(width, 256);
  const std::string dir = scratch_dir("cold_" + std::to_string(width));

  {
    // Warm the on-disk store once — the common case for a developer
    // re-running fortdc on an unchanged tree.
    fortd::Compiler warmup{fortd::CodegenOptions{}, {}, {},
                           fortd::CacheOptions{dir}};
    warmup.compile_source(src);
  }

  int generated = 0, disk_hits = 0;
  for (auto _ : state) {
    // A fresh Compiler per iteration stands in for a fresh fortdc
    // process: the disk tier is warm, every in-memory tier is cold.
    fortd::Compiler compiler{fortd::CodegenOptions{}, {}, {},
                             fortd::CacheOptions{dir}};
    auto r = compiler.compile_source(src);
    generated = r.stats.generated;
    disk_hits = r.stats.disk_hits;
    { auto sink = r.stats.generated; benchmark::DoNotOptimize(sink); }
  }
  state.counters["disk_hits"] = static_cast<double>(disk_hits);
  state.counters["generated"] = static_cast<double>(generated);
  fs::remove_all(dir);
}

void BM_LocalWarmCompile(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  const std::string src = fortd::bench::fan_out(width, 256);

  fortd::Compiler compiler{fortd::CodegenOptions{}};
  compiler.compile_source(src);  // warm the resident caches

  int generated = 0;
  for (auto _ : state) {
    auto r = compiler.compile_source(src);
    generated = r.stats.generated;
    { auto sink = r.stats.generated; benchmark::DoNotOptimize(sink); }
  }
  state.counters["generated"] = static_cast<double>(generated);
}

}  // namespace

BENCHMARK(BM_WarmDaemonCompile)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ColdProcessRecompile)
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LocalWarmCompile)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
