// fortd::Compiler — the public entry point to the library.
//
//   fortd::Compiler compiler(options);
//   fortd::CompileResult r = compiler.compile_source(fortran_d_text);
//   fortd::ExecResult run = fortd::simulate(r.spmd);
//
// The result bundles the bound program (after interprocedural cloning),
// the interprocedural solution, and the generated SPMD program that the
// machine simulator executes and the pretty-printer renders.
//
// A Compiler instance owns a content-hashed CompilationCache that
// persists across compile() calls: recompiling a program in which k
// procedures changed re-runs code generation for only those k plus the
// callers whose callee exports changed (the constructive form of §8's
// recompilation tests). Set options.jobs > 1 for parallel code
// generation; output is byte-identical to the serial schedule.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "analysis/lint/lint.hpp"
#include "analysis/lint/spmd_verifier.hpp"
#include "codegen/codegen.hpp"
#include "driver/compilation_cache.hpp"
#include "driver/compilation_db.hpp"
#include "ipa/summary_cache.hpp"
#include "machine/simulator.hpp"
#include "support/thread_pool.hpp"

namespace fortd {

/// Per-phase wall-clock timings and cache behaviour of one compile().
struct CompilerStats {
  double parse_ms = 0.0;  // counted in total_ms
  double bind_ms = 0.0;
  double ipa_ms = 0.0;
  double overlap_ms = 0.0;
  double codegen_ms = 0.0;
  double total_ms = 0.0;
  int procedures = 0;        // procedures in the (post-cloning) program
  int generated = 0;         // ran through ProcGen this compile
  int cache_hits = 0;        // procedures cloned from the cache
  int cache_misses = 0;
  int wavefront_levels = 0;  // call-graph depth (ACG wavefront levels)
  int jobs = 1;              // worker threads used

  // IPA phase counters (see IpaStats).
  int ipa_rounds = 0;              // cloning fixed-point iterations
  int ipa_rounds_incremental = 0;  // rounds served by dirty-set recompute
  int summaries_computed = 0;      // procedures that ran local analysis
  int summaries_cached = 0;        // served by the IpaSummaryCache
  int summaries_reused = 0;        // carried unchanged between rounds
  int effects_reused = 0;
  int reaching_reused = 0;

  // Lint / verification phase (zero unless LintOptions enables them).
  double lint_ms = 0.0;
  double verify_ms = 0.0;
  int lint_warnings = 0;
  int lint_notes = 0;
  int verify_unmatched = 0;  // SPMD messages with no partner

  // Persistent compilation-database tier (zero without a disk tier):
  // ContentStore counter deltas for this compile(). With a shared store
  // (Compiler::set_shared_store) the deltas include whatever other
  // Compilers did to the store meanwhile.
  int disk_hits = 0;       // artifacts loaded from the cache directory
  int disk_misses = 0;
  int disk_corrupt = 0;    // truncated/bit-flipped/skewed records dropped
  int disk_evictions = 0;  // records a pack rewrite left out this compile

  // Work-stealing scheduler counters: codegen + the IPA propagation
  // passes summed, except the per-pass idle split.
  long sched_tasks = 0;         // graph nodes executed
  long sched_stolen = 0;        // nodes taken from another worker's deque
  int sched_ready_peak = 0;     // ready-queue high-water mark (any pass)
  int sched_critical_path = 0;  // longest dependency chain (codegen graph)
  double sched_idle_codegen_ms = 0.0;  // worker wait time, codegen graph
  double sched_idle_ipa_ms = 0.0;      // worker wait time, IPA graphs
};

struct CompileResult {
  BoundProgram program;  // post-cloning source program
  IpaContext ipa;
  OverlapEstimates overlaps;
  SpmdProgram spmd;
  /// Phase timings + cache counters for this compile.
  CompilerStats stats;
  /// Procedures that actually ran through code generation (cache hits
  /// excluded), in reverse topological order — §8's answer to "what does
  /// this edit recompile?".
  std::vector<std::string> regenerated;
  /// Lint findings (empty unless LintOptions::analyze).
  LintReport lint;
  /// SPMD communication verification (empty unless
  /// LintOptions::verify_spmd).
  SpmdVerifyReport verify;
};

class Compiler {
public:
  /// `cache_options.dir`, when non-empty, opens the persistent
  /// compilation database there and makes both caches two-tier: a second
  /// Compiler (in this process or another) pointed at the same directory
  /// skips code generation and local analysis for every unchanged
  /// procedure.
  explicit Compiler(CodegenOptions options = {}, IpaOptions ipa_options = {},
                    LintOptions lint_options = {},
                    CacheOptions cache_options = {});

  /// Parse, bind, analyze, and generate SPMD code. Throws CompileError.
  /// The parse is timed into CompilerStats::parse_ms.
  CompileResult compile_source(std::string_view source);

  const CodegenOptions& options() const { return options_; }

  /// The procedure cache shared by every compile() of this instance.
  CompilationCache& cache() { return cache_; }
  const CompilationCache& cache() const { return cache_; }

  /// The per-procedure summary cache (the IPA analogue of cache()).
  IpaSummaryCache& summary_cache() { return summary_cache_; }
  const IpaSummaryCache& summary_cache() const { return summary_cache_; }

  /// The persistent compilation database, or nullptr when CacheOptions
  /// left the disk tier disabled.
  ContentStore* content_store() { return store_; }

  /// Cumulative cache counters of every tier — memory and disk — as
  /// stable machine-readable JSON (fortdc -cache-stats-json).
  std::string cache_stats_json() const;

  /// The worker pool shared by IPA, lint and code generation. Created
  /// lazily with options().jobs - 1 workers — with jobs == 1 every batch
  /// runs inline on the caller, so the pool costs nothing.
  ThreadPool* pool();

  /// Use `pool` (not owned, must outlive this Compiler) instead of a
  /// private lazily-created one. The compile service injects one shared
  /// pool into every session's Compiler so concurrent requests split the
  /// machine's workers fairly rather than oversubscribing it with a pool
  /// per session. Safe because ThreadPool::parallel_for interleaves
  /// concurrent batches.
  void set_shared_pool(ThreadPool* pool) { shared_pool_ = pool; }

  /// Use `store` (not owned, must outlive this Compiler) as the disk tier
  /// in place of one opened from CacheOptions. The compile service opens
  /// one store per cache directory and hands it to every session's
  /// Compiler, so the pack is scanned once and a summary, which no option
  /// changes, is appended once. The disk counters in CompilerStats are
  /// then deltas of the shared store and mix in concurrent sessions'
  /// work; nothing reports them per request.
  void set_shared_store(ContentStore* store);

  /// Stats of the most recent compile(). Like last_lint_report(), this
  /// survives a CompileError: timings of the phases that ran and the
  /// cache/disk-tier counters are filled in before the error propagates,
  /// so fortdc -timings can report them after a failed compile. After a
  /// failed parse only parse_ms and total_ms are set.
  const CompilerStats& last_stats() const { return stats_; }

  /// Lint report of the most recent compile(). Populated before code
  /// generation runs, so it survives (and helps explain) a CompileError
  /// thrown by codegen — fortdc -analyze prints it in both cases. On a
  /// successful compile the SPMD verifier's findings are folded in too,
  /// so this is the uniform serialization of *all* findings (-lint-json).
  const LintReport& last_lint_report() const { return last_lint_; }

private:
  /// Everything compile_source() does after a parse that took
  /// `parse_ms`.
  CompileResult compile(SourceProgram ast, double parse_ms);

  CodegenOptions options_;
  IpaOptions ipa_options_;
  LintOptions lint_options_;
  LintReport last_lint_;
  std::unique_ptr<ContentStore> own_store_;  // opened from CacheOptions
  ContentStore* store_ = nullptr;            // null without a disk tier
  CompilationCache cache_;
  IpaSummaryCache summary_cache_;
  std::unique_ptr<ThreadPool> pool_;
  ThreadPool* shared_pool_ = nullptr;  // wins over pool_ when set
  CompilerStats stats_;
};

/// fortdc's stderr report of a successful compile: with `analyze`, the
/// lint and verifier findings and the "fortdc: analyze:" line, then the
/// "fortdc: N clone(s), ..." line. fortdc prints it, and fortdd sends it
/// as a served compile's diagnostics, so the two read identically.
std::string compile_report(const CompileResult& result, bool analyze);

/// Convenience: compile and simulate in one call.
ExecResult compile_and_run(std::string_view source,
                           const CodegenOptions& options = {},
                           const CostModel& cost_model = CostModel::ipsc860());

}  // namespace fortd
