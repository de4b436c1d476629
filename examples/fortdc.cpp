// fortdc — a command-line driver for the library: compile a Fortran D
// source file, print the generated SPMD message-passing program, and
// optionally run it on the simulated machine.
//
//   fortdc [options] file.fd
//     -p N, -P N    SPMD processors (default 4)
//     -j N          code-generation worker threads (default 1; output is
//                   byte-identical for any value)
//     -s STRAT      inter | intra | runtime  (default inter)
//     -O LEVEL      dynamic-decomposition optimization: 0..3 (default 3)
//     -cache-dir D  persistent compilation database: a second fortdc run
//                   on an unchanged program recompiles nothing; after an
//                   edit, only the procedures §8's recompilation tests
//                   dirty
//     -cache-max-bytes N  size bound of the cache pack (default 256 MiB)
//     -cache-clear  empty the cache directory before compiling
//     -cache-stats-json  print cumulative per-tier cache counters as JSON
//                   to stdout after compiling
//     -run          execute after compiling: run the generated SPMD
//                   program at -p processors, diff the numeric results
//                   against a serial execution of the original program,
//                   and (threads backend) cross-check observed message
//                   counts/bytes against the simulator's predictions
//     -backend B    sim | threads: execution backend for -run. Both run
//                   every SPMD process as a fiber on one thread. threads
//                   (the default; no OS thread runs despite the name)
//                   exchanges messages through rendezvous channels; sim
//                   buffers them and charges the logical-clock cost model
//     -analyze      run the interprocedural lint checkers and the SPMD
//                   communication verifier; print findings to stderr
//     -Werror       with -analyze: exit 3 when any finding is reported
//     -lint-json    with -analyze: print lint findings as JSON to stdout
//     -timings      report per-phase wall-clock timings and the
//                   work-stealing scheduler's counters (tasks
//                   executed/stolen, ready-queue peak, critical path,
//                   per-pass idle time)
//     -quiet        suppress the generated-code listing
//     -server HOST:PORT  compile via a resident fortdd daemon: the
//                   daemon's hot caches make repeat and incremental
//                   compiles near-instant across fortdc invocations.
//                   Output (stdout listing, -lint-json, exit codes) is
//                   identical to a local compile; when the daemon is
//                   unreachable, draining, or at capacity, fortdc prints
//                   one warning line and compiles locally — a daemon
//                   problem is never a compile error
//     -server-timeout-ms N  round-trip budget before the local fallback
//                   (default 30000)
//
// Exit codes: 0 success, 1 compile/execution error, 2 usage (a malformed
// flag value included),
// 3 lint/verifier findings promoted by -Werror, 4 conflicting flag
// combination, 5 execution-harness mismatch (numerics differ from the
// serial reference, or observed traffic differs from the simulator's
// prediction). The -server path preserves this contract: a served
// compile exits exactly as the same local compile would.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>

#include "codegen/spmd_printer.hpp"
#include "driver/compiler.hpp"
#include "frontend/parser.hpp"
#include "runtime/harness.hpp"
#include "service/client.hpp"

int main(int argc, char** argv) {
  using namespace fortd;
  CodegenOptions options;
  LintOptions lint_options;
  CacheOptions cache_options;
  bool cache_clear = false;
  bool run = false;
  bool timings = false;
  bool quiet = false;
  bool werror = false;
  bool lint_json = false;
  bool cache_stats_json = false;
  BackendKind backend = BackendKind::Threaded;
  bool backend_set = false;
  const char* path = nullptr;
  const char* server_spec = nullptr;
  int server_timeout_ms = 30000;

  // The value of the numeric flag at argv[i] (advancing i past it), or
  // nullopt after one line naming the flag when it is not a whole number
  // in [lo, hi].
  auto int_value = [&](int& i, long long lo,
                       long long hi) -> std::optional<long long> {
    const char* flag = argv[i++];
    auto v = service::parse_int_in(argv[i], lo, hi);
    if (!v)
      std::fprintf(stderr,
                   "fortdc: %s expects a whole number in %lld..%lld, "
                   "got '%s'\n",
                   flag, lo, hi, argv[i]);
    return v;
  };
  constexpr long long kIntMax = std::numeric_limits<int>::max();
  constexpr long long kMax = std::numeric_limits<long long>::max();

  for (int i = 1; i < argc; ++i) {
    std::optional<long long> v;
    if ((!std::strcmp(argv[i], "-p") || !std::strcmp(argv[i], "-P")) &&
        i + 1 < argc) {
      if (!(v = int_value(i, 1, kIntMax))) return 2;
      options.n_procs = static_cast<int>(*v);
    } else if (!std::strcmp(argv[i], "-j") && i + 1 < argc) {
      if (!(v = int_value(i, 1, kIntMax))) return 2;
      options.jobs = static_cast<int>(*v);
    } else if (!std::strcmp(argv[i], "-s") && i + 1 < argc) {
      const char* s = argv[++i];
      if (!std::strcmp(s, "inter")) {
        options.strategy = Strategy::Interprocedural;
      } else if (!std::strcmp(s, "intra")) {
        options.strategy = Strategy::Intraprocedural;
      } else if (!std::strcmp(s, "runtime")) {
        options.strategy = Strategy::RuntimeResolution;
      } else {
        std::fprintf(stderr,
                     "fortdc: -s expects inter|intra|runtime, got '%s'\n", s);
        return 2;
      }
    } else if (!std::strcmp(argv[i], "-O") && i + 1 < argc) {
      if (!(v = int_value(i, 0, 3))) return 2;
      options.dyn_decomp = static_cast<DynDecompOpt>(*v);  // 0 None .. 3 Full
    } else if (!std::strcmp(argv[i], "-cache-dir") && i + 1 < argc) {
      cache_options.dir = argv[++i];
    } else if (!std::strcmp(argv[i], "-cache-max-bytes") && i + 1 < argc) {
      if (!(v = int_value(i, 0, kMax))) return 2;
      cache_options.max_bytes = static_cast<uint64_t>(*v);
    } else if (!std::strcmp(argv[i], "-cache-stats-json")) {
      cache_stats_json = true;
    } else if (!std::strcmp(argv[i], "-cache-clear")) {
      cache_clear = true;
    } else if (!std::strcmp(argv[i], "-run")) {
      run = true;
    } else if (!std::strcmp(argv[i], "-backend") && i + 1 < argc) {
      auto kind = parse_backend_kind(argv[++i]);
      if (!kind) {
        std::fprintf(stderr, "fortdc: -backend expects sim|threads\n");
        return 2;
      }
      backend = *kind;
      backend_set = true;
    } else if (!std::strcmp(argv[i], "-analyze")) {
      lint_options.analyze = true;
      lint_options.verify_spmd = true;
    } else if (!std::strcmp(argv[i], "-Werror")) {
      werror = true;
    } else if (!std::strcmp(argv[i], "-lint-json")) {
      lint_json = true;
    } else if (!std::strcmp(argv[i], "-timings")) {
      timings = true;
    } else if (!std::strcmp(argv[i], "-quiet")) {
      quiet = true;
    } else if (!std::strcmp(argv[i], "-server") && i + 1 < argc) {
      server_spec = argv[++i];
    } else if (!std::strcmp(argv[i], "-server-timeout-ms") && i + 1 < argc) {
      if (!(v = int_value(i, 1, kIntMax))) return 2;
      server_timeout_ms = static_cast<int>(*v);
    } else if (argv[i][0] != '-') {
      path = argv[i];
    } else {
      std::fprintf(stderr, "fortdc: unknown option '%s'\n", argv[i]);
      return 2;
    }
  }
  if (!path) {
    std::fprintf(stderr,
                 "usage: fortdc [-p N] [-j N] [-s inter|intra|runtime] "
                 "[-O 0..3] [-cache-dir D] [-cache-max-bytes N] "
                 "[-cache-clear] [-cache-stats-json] [-run] "
                 "[-backend sim|threads] "
                 "[-analyze] [-Werror] [-lint-json] [-timings] [-quiet] "
                 "[-server HOST:PORT] [-server-timeout-ms N] file.fd\n");
    return 2;
  }
  if (cache_clear && cache_options.dir.empty()) {
    std::fprintf(stderr, "fortdc: -cache-clear requires -cache-dir\n");
    return 2;
  }
  // Conflicting flag combinations get their own exit code (4) so scripts
  // can tell "you asked for nonsense" apart from a mere usage error.
  if (backend_set && !run) {
    std::fprintf(stderr,
                 "fortdc: -backend selects the -run execution backend; "
                 "it does nothing without -run\n");
    return 4;
  }
  if ((werror || lint_json) && !lint_options.analyze) {
    std::fprintf(stderr, "fortdc: %s is an -analyze-only mode; add -analyze\n",
                 werror ? "-Werror" : "-lint-json");
    return 4;
  }
  if (run && lint_json) {
    std::fprintf(stderr,
                 "fortdc: -run conflicts with -lint-json (both own the "
                 "machine-readable stdout stream)\n");
    return 4;
  }
  if (server_spec && run) {
    std::fprintf(stderr,
                 "fortdc: -server conflicts with -run (execution needs the "
                 "in-process compile result; drop -server to run)\n");
    return 4;
  }
  std::optional<service::ClientOptions> server_options;
  if (server_spec) {
    server_options = service::parse_server_endpoint(server_spec);
    if (!server_options) {
      std::fprintf(stderr, "fortdc: -server expects HOST:PORT, got '%s'\n",
                   server_spec);
      return 2;
    }
    server_options->timeout_ms = server_timeout_ms;
  }

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "fortdc: cannot open '%s'\n", path);
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();

  // Served compile: ship source + options to the resident daemon. Every
  // daemon-side problem falls through to the local path below with one
  // warning line — only an Ok/CompileFail reply is authoritative.
  if (server_options) {
    remote::CompileOptionsWire copts;
    copts.n_procs = static_cast<uint32_t>(options.n_procs);
    copts.strategy = static_cast<uint8_t>(options.strategy);
    copts.dyn_decomp = static_cast<uint8_t>(options.dyn_decomp);
    copts.analyze = lint_options.analyze ? 1 : 0;
    copts.want_lint_json = lint_json ? 1 : 0;
    copts.want_timings = timings ? 1 : 0;
    service::CompileClient client(*server_options);
    std::string reason;
    auto reply = client.compile(buf.str(), copts, &reason);
    if (reply) {
      if (static_cast<remote::CompileStatus>(reply->status) ==
          remote::CompileStatus::CompileFail) {
        std::fputs(reply->diagnostics.c_str(), stderr);
        return 1;
      }
      if (!quiet) std::fputs(reply->spmd.c_str(), stdout);
      if (lint_json) std::fputs(reply->lint_json.c_str(), stdout);
      std::fputs(reply->diagnostics.c_str(), stderr);
      if (timings)
        std::fprintf(stderr, "fortdc: server: %s\n",
                     reply->timings_json.c_str());
      if (cache_stats_json) {
        std::string metrics_reason;
        if (auto metrics = client.fetch_metrics(&metrics_reason))
          std::fprintf(stdout, "%s\n", metrics->c_str());
      }
      if (werror && reply->findings > 0) {
        std::fprintf(stderr, "fortdc: -Werror: %d finding(s)\n",
                     static_cast<int>(reply->findings));
        return 3;
      }
      return 0;
    }
    std::fprintf(stderr,
                 "fortdc: warning: compile server %s:%d unavailable (%s), "
                 "compiling locally\n",
                 server_options->host.c_str(), server_options->port,
                 reason.c_str());
  }

  int findings = 0;
  Compiler compiler(options, IpaOptions{}, lint_options, cache_options);
  if (cache_clear) compiler.content_store()->clear();

  // Timings survive a CompileError (Compiler fills last_stats() before the
  // error propagates), so both exit paths share this report.
  auto print_timings = [&] {
    const CompilerStats& cs = compiler.last_stats();
    std::fprintf(stderr,
                 "fortdc: parse %.2fms, bind %.2fms, ipa %.2fms, overlap "
                 "%.2fms, codegen %.2fms (jobs=%d, %d level(s), %d/%d "
                 "generated), total %.2fms\n",
                 cs.parse_ms, cs.bind_ms, cs.ipa_ms, cs.overlap_ms,
                 cs.codegen_ms, cs.jobs, cs.wavefront_levels, cs.generated,
                 cs.procedures, cs.total_ms);
    std::fprintf(stderr,
                 "fortdc: ipa %d round(s) (%d incremental), summaries "
                 "%d computed / %d cached / %d reused, effects %d "
                 "reused, reaching %d reused\n",
                 cs.ipa_rounds, cs.ipa_rounds_incremental,
                 cs.summaries_computed, cs.summaries_cached,
                 cs.summaries_reused, cs.effects_reused,
                 cs.reaching_reused);
    std::fprintf(stderr, "fortdc: cache: %d hit(s), %d miss(es)",
                 cs.cache_hits, cs.cache_misses);
    if (!cache_options.dir.empty())
      std::fprintf(stderr,
                   "; disk: %d hit(s), %d miss(es), %d corrupt, %d evicted",
                   cs.disk_hits, cs.disk_misses, cs.disk_corrupt,
                   cs.disk_evictions);
    std::fputc('\n', stderr);
    std::fprintf(stderr,
                 "fortdc: sched: %ld task(s) (%ld stolen), ready peak %d, "
                 "critical path %d, idle codegen %.2fms / ipa %.2fms\n",
                 cs.sched_tasks, cs.sched_stolen, cs.sched_ready_peak,
                 cs.sched_critical_path, cs.sched_idle_codegen_ms,
                 cs.sched_idle_ipa_ms);
    if (lint_options.analyze)
      std::fprintf(stderr,
                   "fortdc: lint %.2fms (%d warning(s), %d note(s)), "
                   "verify %.2fms (%d unmatched)\n",
                   cs.lint_ms, cs.lint_warnings, cs.lint_notes,
                   cs.verify_ms, cs.verify_unmatched);
  };

  try {
    CompileResult result = compiler.compile_source(buf.str());
    if (!quiet) std::fputs(print_spmd(result.spmd).c_str(), stdout);

    if (lint_options.analyze) {
      // last_lint_report() folds the verifier's findings into the lint
      // report, so the JSON stream carries an id for every finding.
      if (lint_json)
        std::fputs(compiler.last_lint_report().json().c_str(), stdout);
      findings = result.lint.warnings +
                 static_cast<int>(result.verify.diags.size());
    }
    std::fputs(compile_report(result, lint_options.analyze).c_str(), stderr);

    if (timings) print_timings();
    if (cache_stats_json)
      std::fprintf(stdout, "%s\n", compiler.cache_stats_json().c_str());

    if (run) {
      // Differential execution: the serial reference interprets the
      // *original* program, so parse the source again without codegen.
      SourceProgram original = parse_program(buf.str());
      HarnessOptions hopts;
      hopts.backend = backend;
      HarnessReport hr = run_and_check(original, result.spmd, hopts);
      std::fputs(hr.text().c_str(), stderr);
      if (!hr.ok()) {
        std::fprintf(stderr, "fortdc: execution harness mismatch\n");
        return 5;
      }
    }
  } catch (const CompileError& e) {
    // The lint phase runs before code generation, so its report survives a
    // codegen failure and usually explains it (e.g. a distribution
    // conflict the call-mismatch checker names precisely).
    if (lint_options.analyze && !compiler.last_lint_report().empty()) {
      if (lint_json) std::fputs(compiler.last_lint_report().json().c_str(),
                                stdout);
      std::fputs(compiler.last_lint_report().text().c_str(), stderr);
    }
    if (timings) print_timings();
    std::fprintf(stderr, "fortdc: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fortdc: execution error: %s\n", e.what());
    return 1;
  }
  if (werror && findings > 0) {
    std::fprintf(stderr, "fortdc: -Werror: %d finding(s)\n", findings);
    return 3;
  }
  return 0;
}
