// Incremental, parallel interprocedural analysis:
//   * serial (no pool) and parallel (pooled) run_ipa produce identical
//     summaries, side effects, reaching decompositions, and clone sets
//     over every workload generator,
//   * the incremental cloning fixed point equals a full recompute while
//     carrying unchanged procedures over between rounds,
//   * the Compiler's IpaSummaryCache skips local analysis for unchanged
//     procedures across compile() calls (1-of-N edit re-analyzes 1),
//   * topological_indices(), the node order of the top-down pass, puts
//     every caller before its callees.
#include <gtest/gtest.h>

#include <sstream>

#include "../bench/programs.hpp"
#include "codegen/spmd_printer.hpp"
#include "driver/compiler.hpp"
#include "support/thread_pool.hpp"

namespace fortd {
namespace {

// ---------------------------------------------------------------------------
// Canonical dump of everything run_ipa produces. Statement-keyed maps are
// re-keyed by pre-order statement index so the dump is address-free and
// comparable across independent compiles.
// ---------------------------------------------------------------------------

void dump_specs(std::ostringstream& os,
                const std::map<std::string, std::set<DecompSpec>>& vars) {
  for (const auto& [var, specs] : vars) {
    os << " " << var << "={";
    for (const auto& spec : specs) os << spec.str() << "|";
    os << "}";
  }
}

std::string dump_ipa(const BoundProgram& bp, const IpaContext& ctx) {
  std::ostringstream os;
  os << "clones:" << ctx.clones_created << "\n";
  for (const auto& [clone, origin] : ctx.clone_origin)
    os << "origin " << clone << "<-" << origin << "\n";
  for (const auto& name : ctx.runtime_fallback) os << "fallback " << name << "\n";

  for (const auto& [name, sum] : ctx.summaries) {
    os << "summary " << name << " hash=" << sum.hash
       << " dyn=" << sum.has_dynamic_decomp
       << " dist=" << sum.distribute_stmts.size() << "\n";
    os << " mod:";
    for (const auto& v : sum.mod) os << " " << v;
    os << "\n ref:";
    for (const auto& v : sum.ref) os << " " << v;
    os << "\n";
    for (const auto& [a, list] : sum.defs) os << " def " << a << "=" << list.str() << "\n";
    for (const auto& [a, list] : sum.uses) os << " use " << a << "=" << list.str() << "\n";
    for (const auto& [a, ov] : sum.overlaps) os << " ov " << a << "=" << ov.str() << "\n";
    for (const auto& e : sum.local_reaching) {
      os << " lr " << e.callee << ":";
      dump_specs(os, e.reaching);
      os << "\n";
    }
  }

  auto dump_names = [&](const char* tag,
                        const std::map<std::string, std::set<std::string>>& m) {
    for (const auto& [name, vars] : m) {
      os << tag << " " << name << ":";
      for (const auto& v : vars) os << " " << v;
      os << "\n";
    }
  };
  dump_names("gmod", ctx.effects.gmod);
  dump_names("gref", ctx.effects.gref);
  auto dump_sections =
      [&](const char* tag,
          const std::map<std::string, std::map<std::string, RsdList>>& m) {
        for (const auto& [name, arrays] : m) {
          os << tag << " " << name << ":";
          for (const auto& [a, list] : arrays) os << " " << a << "=" << list.str();
          os << "\n";
        }
      };
  dump_sections("gdefs", ctx.effects.gdefs);
  dump_sections("guses", ctx.effects.guses);

  for (const auto& [name, vars] : ctx.reaching.reaching) {
    os << "reaching " << name << ":";
    dump_specs(os, vars);
    os << "\n";
  }
  for (const auto& proc : bp.ast.procedures) {
    auto it = ctx.reaching.at_stmt.find(proc->name);
    if (it == ctx.reaching.at_stmt.end()) continue;
    std::map<const Stmt*, size_t> index_of;
    size_t count = 0;
    walk_stmts(proc->body, [&](const Stmt& s) { index_of[&s] = count++; });
    std::map<size_t, const std::map<std::string, std::set<DecompSpec>>*> ordered;
    for (const auto& [stmt, vars] : it->second) {
      auto f = index_of.find(stmt);
      if (f == index_of.end()) {
        ADD_FAILURE() << proc->name << ": at_stmt key outside the AST";
        continue;
      }
      ordered[f->second] = &vars;
    }
    for (const auto& [idx, vars] : ordered) {
      os << "at " << proc->name << "#" << idx << ":";
      dump_specs(os, *vars);
      os << "\n";
    }
  }
  return os.str();
}

std::string ipa_dump_of(const std::string& src, const IpaOptions& opts,
                        ThreadPool* pool = nullptr) {
  BoundProgram bp = parse_and_bind(src);
  IpaContext ctx = run_ipa(bp, opts, pool);
  return dump_ipa(bp, ctx);
}

// ---------------------------------------------------------------------------
// Determinism: serial vs parallel, incremental vs full
// ---------------------------------------------------------------------------

class IpaDeterminism
    : public ::testing::TestWithParam<std::pair<const char*, std::string>> {};

TEST_P(IpaDeterminism, SerialAndParallelAgree) {
  const std::string& src = GetParam().second;
  ThreadPool pool(3);
  std::string serial = ipa_dump_of(src, {});
  std::string parallel = ipa_dump_of(src, {}, &pool);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

TEST_P(IpaDeterminism, IncrementalAndFullRecomputeAgree) {
  const std::string& src = GetParam().second;
  IpaOptions full;
  full.incremental = false;
  IpaOptions inc;
  inc.incremental = true;
  EXPECT_EQ(ipa_dump_of(src, full), ipa_dump_of(src, inc));
}

TEST_P(IpaDeterminism, ParallelIncrementalEqualsSerialFull) {
  const std::string& src = GetParam().second;
  IpaOptions full;
  full.incremental = false;
  ThreadPool pool(3);
  EXPECT_EQ(ipa_dump_of(src, full), ipa_dump_of(src, {}, &pool));
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, IpaDeterminism,
    ::testing::Values(
        std::make_pair("stencil1d", bench::stencil1d(64)),
        std::make_pair("fig4", bench::fig4(32, 8)),
        std::make_pair("fig15", bench::fig15(64, 4)),
        std::make_pair("dgefa", bench::dgefa(16)),
        std::make_pair("call_chain", bench::call_chain(12, 64)),
        std::make_pair("cloning_hub", bench::cloning_hub(4, 16)),
        std::make_pair("cloning_fanout", bench::cloning_fanout(8, 3, 32)),
        std::make_pair("fan_out", bench::fan_out(16, 64))),
    [](const auto& info) { return info.param.first; });

TEST(IpaDeterminism, ParallelEndToEndOutputIsIdentical) {
  // Through the whole Compiler (pooled IPA + pooled codegen): the printed
  // SPMD program must not depend on jobs.
  std::string src = bench::cloning_fanout(8, 3, 32);
  CodegenOptions serial_opt;
  serial_opt.n_procs = 4;
  CodegenOptions par_opt = serial_opt;
  par_opt.jobs = 4;
  Compiler serial(serial_opt);
  Compiler parallel(par_opt);
  EXPECT_EQ(print_spmd(serial.compile_source(src).spmd),
            print_spmd(parallel.compile_source(src).spmd));
}

// ---------------------------------------------------------------------------
// Incremental fixed point: reuse accounting
// ---------------------------------------------------------------------------

TEST(IncrementalIpa, CloningRoundReusesUntouchedLeaves) {
  // 8 leaves never change; the hub gets 2 clones in round 1. Round 2 must
  // re-analyze only {hub$2, hub$3, p} and carry the leaves over.
  BoundProgram bp = parse_and_bind(bench::cloning_fanout(8, 3, 32));
  IpaContext ctx = run_ipa(bp);
  EXPECT_EQ(ctx.clones_created, 2);
  EXPECT_GE(ctx.stats.rounds, 2);
  EXPECT_EQ(ctx.stats.rounds_incremental, ctx.stats.rounds - 1);
  // Round 1 analyzes all 10 procedures; round 2 the 2 clones + retargeted
  // main program.
  EXPECT_EQ(ctx.stats.summaries_computed, 13);
  EXPECT_EQ(ctx.stats.summaries_reused, 9);  // 8 leaves + original hub
  EXPECT_GT(ctx.stats.effects_reused, 0);
  EXPECT_GT(ctx.stats.reaching_reused, 0);
}

TEST(IncrementalIpa, FullRecomputeReusesNothing) {
  IpaOptions full;
  full.incremental = false;
  BoundProgram bp = parse_and_bind(bench::cloning_fanout(8, 3, 32));
  IpaContext ctx = run_ipa(bp, full);
  EXPECT_EQ(ctx.stats.rounds_incremental, 0);
  EXPECT_EQ(ctx.stats.summaries_reused, 0);
  EXPECT_EQ(ctx.stats.effects_reused, 0);
  EXPECT_EQ(ctx.stats.reaching_reused, 0);
}

TEST(IncrementalIpa, CloneNamesMatchFullRecompute) {
  IpaOptions full;
  full.incremental = false;
  BoundProgram bp1 = parse_and_bind(bench::cloning_hub(4, 16));
  BoundProgram bp2 = parse_and_bind(bench::cloning_hub(4, 16));
  IpaContext inc = run_ipa(bp1);
  IpaContext ful = run_ipa(bp2, full);
  EXPECT_EQ(inc.clone_origin, ful.clone_origin);
  EXPECT_EQ(inc.clones_created, ful.clones_created);
  EXPECT_EQ(inc.runtime_fallback, ful.runtime_fallback);
}

// ---------------------------------------------------------------------------
// IpaSummaryCache: cross-compile reuse keyed by hash_procedure
// ---------------------------------------------------------------------------

TEST(SummaryCache, SecondCompileSkipsAllLocalAnalysis) {
  std::string src = bench::fan_out(8, 64);
  Compiler compiler;
  CompileResult r1 = compiler.compile_source(src);
  EXPECT_EQ(r1.stats.summaries_computed, 9);  // 8 leaves + program
  EXPECT_EQ(r1.stats.summaries_cached, 0);

  CompileResult r2 = compiler.compile_source(src);
  EXPECT_EQ(r2.stats.summaries_computed, 0);
  EXPECT_EQ(r2.stats.summaries_cached, 9);
  EXPECT_EQ(print_spmd(r1.spmd), print_spmd(r2.spmd));
}

TEST(SummaryCache, OneEditReanalyzesOneProcedure) {
  Compiler compiler;
  compiler.compile_source(bench::fan_out(8, 64));
  CompileResult r = compiler.compile_source(bench::fan_out(8, 64, 3));
  EXPECT_EQ(r.stats.summaries_computed, 1);  // only the edited leaf3
  EXPECT_EQ(r.stats.summaries_cached, 8);

  // Byte-identical to a cold compile of the edited program.
  Compiler cold;
  EXPECT_EQ(print_spmd(r.spmd),
            print_spmd(cold.compile_source(bench::fan_out(8, 64, 3)).spmd));
}

TEST(SummaryCache, RehydratedPointersTargetTheNewAst) {
  // Insert a summary computed from one AST, look it up against a second
  // parse of the same source: the Stmt pointers must land in the new AST.
  std::string src = bench::fig15(64, 4);
  BoundProgram bp1 = parse_and_bind(src);
  BoundProgram bp2 = parse_and_bind(src);
  const Procedure* f1_old = bp1.find("f1");
  const Procedure* f1_new = bp2.find("f1");
  ASSERT_NE(f1_old, nullptr);
  ASSERT_NE(f1_new, nullptr);

  IpaSummaryCache cache;
  ProcSummary sum = compute_summary(bp1, "f1");
  ASSERT_FALSE(sum.distribute_stmts.empty());
  uint64_t h = hash_procedure(*f1_old);
  EXPECT_EQ(hash_procedure(*f1_new), h);
  EXPECT_FALSE(cache.lookup(h, *f1_new).has_value());  // cold
  cache.insert(h, *f1_old, sum);

  auto hit = cache.lookup(h, *f1_new);
  ASSERT_TRUE(hit.has_value());
  std::set<const Stmt*> new_stmts;
  walk_stmts(f1_new->body, [&](const Stmt& s) { new_stmts.insert(&s); });
  for (const Stmt* s : hit->distribute_stmts) EXPECT_TRUE(new_stmts.count(s));
  for (const auto& e : hit->local_reaching)
    EXPECT_TRUE(new_stmts.count(e.call_stmt));
  // Value parts are untouched.
  EXPECT_EQ(hit->mod, sum.mod);
  EXPECT_EQ(hit->ref, sum.ref);
  EXPECT_EQ(hit->hash, sum.hash);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(SummaryCache, CachedCompileIsByteIdenticalAcrossJobs) {
  std::string src = bench::cloning_fanout(8, 3, 32);
  CodegenOptions opt;
  opt.jobs = 4;
  Compiler warm(opt);
  warm.compile_source(src);
  CompileResult r = warm.compile_source(src);  // summaries all cached
  EXPECT_EQ(r.stats.summaries_computed, 0);
  Compiler cold;
  EXPECT_EQ(print_spmd(r.spmd), print_spmd(cold.compile_source(src).spmd));
}

// ---------------------------------------------------------------------------
// Top-down node order of the reaching-decompositions task graph
// ---------------------------------------------------------------------------

TEST(TopologicalIndices, CallersPrecedeCalleesOnEveryWorkload) {
  // Reaching decompositions run as a task graph over topological_indices():
  // node positions double as dependency order, so every caller must sit
  // before each of its callees, and every procedure must appear once.
  for (const std::string& src :
       {bench::dgefa(16), bench::call_chain(10, 32),
        bench::chain_fanout(6, 8, 64), bench::cloning_fanout(8, 4, 32)}) {
    BoundProgram bp = parse_and_bind(src);
    AugmentedCallGraph acg = AugmentedCallGraph::build(bp);
    const std::vector<int>& order = acg.topological_indices();
    ASSERT_EQ(order.size(), bp.ast.procedures.size());
    std::map<int, size_t> position;
    for (size_t p = 0; p < order.size(); ++p) {
      EXPECT_EQ(position.count(order[p]), 0u) << "index " << order[p];
      position[order[p]] = p;
    }
    for (const CallSiteInfo& site : acg.call_sites())
      EXPECT_LT(position.at(acg.procedure_index(site.caller)),
                position.at(acg.procedure_index(site.callee)))
          << site.caller << " -> " << site.callee;
    EXPECT_TRUE(bp.ast.procedures[static_cast<size_t>(order.front())]
                    ->is_program);
  }
}

}  // namespace
}  // namespace fortd
