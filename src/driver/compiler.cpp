#include "driver/compiler.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "frontend/parser.hpp"

namespace fortd {

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

Compiler::Compiler(CodegenOptions options, IpaOptions ipa_options,
                   LintOptions lint_options, CacheOptions cache_options)
    : options_(options), ipa_options_(ipa_options),
      lint_options_(std::move(lint_options)) {
  if (!cache_options.dir.empty()) {
    own_store_ = std::make_unique<ContentStore>(std::move(cache_options));
    set_shared_store(own_store_.get());
  }
}

void Compiler::set_shared_store(ContentStore* store) {
  store_ = store;
  cache_.attach_store(store);
  summary_cache_.attach_store(store);
}

ThreadPool* Compiler::pool() {
  if (shared_pool_) return shared_pool_;
  if (!pool_)
    pool_ = std::make_unique<ThreadPool>(std::max(1, options_.jobs) - 1);
  return pool_.get();
}

CompileResult Compiler::compile_source(std::string_view source) {
  const auto start = std::chrono::steady_clock::now();
  SourceProgram ast;
  try {
    ast = parse_program(source);
  } catch (...) {
    stats_ = CompilerStats{};
    stats_.parse_ms = stats_.total_ms = ms_since(start);
    throw;
  }
  return compile(std::move(ast), ms_since(start));
}

CompileResult Compiler::compile(SourceProgram ast, double parse_ms) {
  const auto t_total = std::chrono::steady_clock::now();
  const uint64_t hits0 = cache_.hits();
  const uint64_t misses0 = cache_.misses();
  const ContentStore::Counters disk0 =
      store_ ? store_->counters() : ContentStore::Counters{};
  CompileResult result;
  result.stats.parse_ms = parse_ms;

  // Shared by the success path and the CompileError unwind: cache and
  // disk-tier accounting stays meaningful after a failed compile (the
  // -timings analogue of last_lint_report()), and pending store writes
  // land on disk off the per-procedure hot path.
  auto finalize = [&] {
    result.stats.total_ms = parse_ms + ms_since(t_total);
    result.stats.cache_hits = static_cast<int>(cache_.hits() - hits0);
    result.stats.cache_misses = static_cast<int>(cache_.misses() - misses0);
    result.stats.jobs = options_.jobs < 1 ? 1 : options_.jobs;
    const IpaStats& is = result.ipa.stats;
    result.stats.ipa_rounds = is.rounds;
    result.stats.ipa_rounds_incremental = is.rounds_incremental;
    result.stats.summaries_computed = is.summaries_computed;
    result.stats.summaries_cached = is.summaries_cached;
    result.stats.summaries_reused = is.summaries_reused;
    result.stats.effects_reused = is.effects_reused;
    result.stats.reaching_reused = is.reaching_reused;
    // Scheduler counters: the IPA share lands here (codegen's was added
    // right after generate(), which a CompileError may have skipped).
    result.stats.sched_tasks += static_cast<long>(is.sched.executed);
    result.stats.sched_stolen += static_cast<long>(is.sched.stolen);
    if (static_cast<int>(is.sched.ready_peak) > result.stats.sched_ready_peak)
      result.stats.sched_ready_peak = static_cast<int>(is.sched.ready_peak);
    result.stats.sched_idle_ipa_ms = is.sched.idle_ms;
    if (store_) {
      store_->flush();
      const ContentStore::Counters d = store_->counters();
      result.stats.disk_hits = static_cast<int>(d.hits - disk0.hits);
      result.stats.disk_misses = static_cast<int>(d.misses - disk0.misses);
      result.stats.disk_corrupt = static_cast<int>(d.corrupt - disk0.corrupt);
      result.stats.disk_evictions =
          static_cast<int>(d.evictions - disk0.evictions);
    }
    stats_ = result.stats;
  };

  try {
    auto t = std::chrono::steady_clock::now();
    result.program = bind_program(std::move(ast));
    result.stats.bind_ms = ms_since(t);

    t = std::chrono::steady_clock::now();
    result.ipa = run_ipa(result.program, ipa_options_, pool(), &summary_cache_);
    result.stats.ipa_ms = ms_since(t);

    t = std::chrono::steady_clock::now();
    result.overlaps = compute_overlap_estimates(result.program, result.ipa.acg,
                                                result.ipa.summaries);
    result.stats.overlap_ms = ms_since(t);

    last_lint_ = LintReport{};
    if (lint_options_.analyze) {
      t = std::chrono::steady_clock::now();
      LintDriver linter(lint_options_);
      LintContext lint_ctx{result.program, result.ipa, result.overlaps,
                           options_};
      result.lint = linter.run(lint_ctx, pool());
      last_lint_ = result.lint;
      result.stats.lint_ms = ms_since(t);
      result.stats.lint_warnings = result.lint.warnings;
      result.stats.lint_notes = result.lint.notes;
    }

    t = std::chrono::steady_clock::now();
    CodeGenerator generator(result.program, result.ipa, options_, &cache_,
                            &result.overlaps, pool());
    result.spmd = generator.generate();
    result.regenerated = generator.generated_procedures();
    result.stats.codegen_ms = ms_since(t);
    const TaskGraphStats& cg = generator.scheduler_stats();
    result.stats.sched_tasks = static_cast<long>(cg.executed);
    result.stats.sched_stolen = static_cast<long>(cg.stolen);
    result.stats.sched_ready_peak = static_cast<int>(cg.ready_peak);
    result.stats.sched_critical_path = static_cast<int>(cg.critical_path);
    result.stats.sched_idle_codegen_ms = cg.idle_ms;

    if (lint_options_.verify_spmd) {
      t = std::chrono::steady_clock::now();
      result.verify = verify_spmd(result.spmd, pool());
      result.stats.verify_ms = ms_since(t);
      result.stats.verify_unmatched = result.verify.unmatched;
      // Fold verifier findings into the surviving report so
      // last_lint_report() serializes every finding — lint and SPMD alike
      // — with uniform {id, level, line, col, message} records.
      last_lint_.append(result.verify.diags);
    }

    result.stats.procedures =
        static_cast<int>(result.program.ast.procedures.size());
    result.stats.generated = static_cast<int>(result.regenerated.size());
    result.stats.wavefront_levels =
        static_cast<int>(result.ipa.acg.wavefront_levels().size());
  } catch (...) {
    finalize();
    throw;
  }
  finalize();
  return result;
}

std::string Compiler::cache_stats_json() const {
  std::ostringstream out;
  out << "{\"memory\":{\"proc_hits\":" << cache_.hits()
      << ",\"proc_misses\":" << cache_.misses()
      << ",\"proc_entries\":" << cache_.size()
      << ",\"summary_hits\":" << summary_cache_.hits()
      << ",\"summary_misses\":" << summary_cache_.misses()
      << ",\"summary_entries\":" << summary_cache_.size() << "}";
  if (store_) {
    const ContentStore::Counters d = store_->counters();
    out << ",\"disk\":{\"hits\":" << d.hits << ",\"misses\":" << d.misses
        << ",\"writes\":" << d.writes << ",\"evictions\":" << d.evictions
        << ",\"corrupt\":" << d.corrupt << "}";
  }
  // Unlike the cache tiers (cumulative), the scheduler section reports
  // the most recent compile(): per-compile graphs are what the counters
  // describe.
  out << ",\"scheduler\":{\"tasks\":" << stats_.sched_tasks
      << ",\"stolen\":" << stats_.sched_stolen
      << ",\"ready_peak\":" << stats_.sched_ready_peak
      << ",\"critical_path\":" << stats_.sched_critical_path
      << ",\"idle_codegen_ms\":" << stats_.sched_idle_codegen_ms
      << ",\"idle_ipa_ms\":" << stats_.sched_idle_ipa_ms << "}";
  out << "}";
  return out.str();
}

std::string compile_report(const CompileResult& result, bool analyze) {
  std::ostringstream out;
  if (analyze)
    out << result.lint.text() << result.verify.text()
        << "fortdc: analyze: " << result.lint.warnings << " warning(s), "
        << result.lint.notes << " note(s); spmd: " << result.verify.summary()
        << "\n";
  const CompileStats& st = result.spmd.stats;
  out << "fortdc: " << st.clones_created << " clone(s), "
      << st.loops_bounds_reduced << " reduced loop(s), " << st.guards_inserted
      << " guard(s), " << st.vectorized_messages << " vectorized message(s), "
      << st.delayed_comms_exported + st.delayed_comms_absorbed
      << " delayed comm(s), " << st.runtime_resolved_stmts
      << " run-time-resolved stmt(s)\n";
  return out.str();
}

ExecResult compile_and_run(std::string_view source,
                           const CodegenOptions& options,
                           const CostModel& cost_model) {
  Compiler compiler(options);
  CompileResult r = compiler.compile_source(source);
  return simulate(r.spmd, cost_model);
}

}  // namespace fortd
