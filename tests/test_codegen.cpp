// Code-generation tests: distribution functions, owner-computes
// partitioning, communication classification and placement, golden
// structure for the paper's Figures 2, 10, and 12, run-time resolution
// shape (Fig. 3), storage management, and the dynamic-decomposition
// optimization pipeline (Fig. 16).
#include <gtest/gtest.h>

#include "codegen/spmd_printer.hpp"
#include "driver/compiler.hpp"

namespace fortd {
namespace {

// ---------------------------------------------------------------------------
// Distribution functions (property sweeps across kinds, sizes, processors)
// ---------------------------------------------------------------------------

struct DistCase {
  DistKind kind;
  int block;
  int64_t n;
  int procs;
};

class DistributionProperty : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistributionProperty, OwnershipPartitionsIndexSpace) {
  const auto& c = GetParam();
  DimDistribution dd(DistSpec{c.kind, c.block}, 1, c.n, c.procs);
  const OwnerFn owner(DecompSpec{{DistSpec{c.kind, c.block}}}, {{1, c.n}},
                      c.procs);
  if (c.kind == DistKind::None) {
    // Replicated: every processor holds the full range; owner is 0.
    for (int64_t i = 1; i <= c.n; ++i) EXPECT_EQ(owner.at(i), 0);
    EXPECT_EQ(dd.local_set(2), Triplet(1, c.n));
    return;
  }
  // Every index has exactly one owner, and local sets tile the space.
  std::vector<int> owner_count(static_cast<size_t>(c.n) + 1, 0);
  for (int p = 0; p < c.procs; ++p) {
    RsdList owned = dd.owned_list(p);
    for (const Rsd& r : owned.sections())
      for (const auto& pt : r.enumerate()) {
        ASSERT_GE(pt[0], 1);
        ASSERT_LE(pt[0], c.n);
        ++owner_count[static_cast<size_t>(pt[0])];
        EXPECT_EQ(owner.at(pt[0]), p);
      }
  }
  for (int64_t i = 1; i <= c.n; ++i)
    EXPECT_EQ(owner_count[static_cast<size_t>(i)], 1) << "index " << i;
}

TEST_P(DistributionProperty, LocalCountsSumToN) {
  const auto& c = GetParam();
  if (c.kind == DistKind::None) return;  // replicated: not a partition
  DimDistribution dd(DistSpec{c.kind, c.block}, 1, c.n, c.procs);
  int64_t total = 0;
  for (int p = 0; p < c.procs; ++p) total += dd.local_count(p);
  EXPECT_EQ(total, c.n);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DistributionProperty,
    ::testing::Values(DistCase{DistKind::Block, 0, 100, 4},
                      DistCase{DistKind::Block, 0, 97, 4},
                      DistCase{DistKind::Block, 0, 100, 7},
                      DistCase{DistKind::Block, 0, 5, 8},
                      DistCase{DistKind::Cyclic, 0, 100, 4},
                      DistCase{DistKind::Cyclic, 0, 97, 3},
                      DistCase{DistKind::Cyclic, 0, 4, 8},
                      DistCase{DistKind::BlockCyclic, 4, 100, 4},
                      DistCase{DistKind::BlockCyclic, 3, 97, 5},
                      DistCase{DistKind::None, 0, 50, 4}));

TEST(Distribution, BlockLocalSetsMatchPaper) {
  // Fig. 1: X(100) BLOCK over 4 procs -> [1:25] per processor.
  DimDistribution dd(DistSpec{DistKind::Block, 0}, 1, 100, 4);
  EXPECT_EQ(dd.local_set(0), Triplet(1, 25));
  EXPECT_EQ(dd.local_set(3), Triplet(76, 100));
  EXPECT_EQ(OwnerFn(DecompSpec{{DistSpec{DistKind::Block, 0}}}, {{1, 100}}, 4)
                .at(26),
            1);
  EXPECT_EQ(dd.block_size(), 25);
}

TEST(Distribution, CyclicLocalSetsAreStrided) {
  DimDistribution dd(DistSpec{DistKind::Cyclic, 0}, 1, 100, 4);
  EXPECT_EQ(dd.local_set(0), Triplet(1, 97, 4));
  EXPECT_EQ(dd.local_set(2), Triplet(3, 99, 4));
}

TEST(Distribution, RemapBytesCountsMovedElements) {
  const DecompSpec block{{DistSpec{DistKind::Block, 0}}};
  const DecompSpec cyclic{{DistSpec{DistKind::Cyclic, 0}}};
  const OwnerFn from(block, {{1, 100}}, 4);
  const OwnerFn to(cyclic, {{1, 100}}, 4);
  // Block p owns [25p+1, 25p+25]; cyclic owner (i-1)%4. Within each block
  // 7 of 25 elements keep their owner (28 total), so 72 move.
  EXPECT_EQ(moved_elements({{1, 100}}, from, to), 72);
  EXPECT_EQ(moved_elements({{1, 100}}, from, from), 0);
}

// moved_elements factorizes over the dimensions that decide an owner; it
// must equal a point-by-point count for every pair of distributions of a
// 2-D array, including replicated ones and ones distributed along both
// dimensions (which belong to processor 0).
TEST(Distribution, MovedElementsMatchesPointCount) {
  const std::vector<std::pair<int64_t, int64_t>> bounds = {{0, 9}, {3, 9}};
  const DistSpec none{}, block{DistKind::Block, 0}, cyclic{DistKind::Cyclic, 0},
      bcyclic{DistKind::BlockCyclic, 2};
  const std::vector<DecompSpec> specs = {
      DecompSpec{{none, none}},    DecompSpec{{block, none}},
      DecompSpec{{none, block}},   DecompSpec{{cyclic, none}},
      DecompSpec{{none, bcyclic}}, DecompSpec{{block, cyclic}},
      DecompSpec{}};
  for (int procs : {1, 3, 4}) {
    for (const DecompSpec& a : specs) {
      for (const DecompSpec& b : specs) {
        const OwnerFn from(a, bounds, procs), to(b, bounds, procs);
        int64_t differ = 0;
        Rsd::dense(bounds).for_each([&](const int64_t* point) {
          differ += from(point, 2) != to(point, 2);
        });
        EXPECT_EQ(moved_elements(bounds, from, to), differ)
            << a.str() << " -> " << b.str() << " on " << procs;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Owner-computes partitioning
// ---------------------------------------------------------------------------

TEST(Partition, OwnerComputesClassification) {
  BoundProgram bp = parse_and_bind(R"(
      program p
      real x(100)
      integer i, s
      distribute x(block)
      do i = 1, 95
        x(i+2) = 0.0
        s = 1
      enddo
      x(7) = 1.0
      end
)");
  const Procedure& proc = *bp.ast.procedures[0];
  const Symbol* sym = bp.symtab("p").lookup("x");
  DecompSpec spec;
  spec.dists = {DistSpec{DistKind::Block, 0}};
  ArrayDistribution ad("x", spec, sym->dims, 4);
  SymbolicEnv env;

  // x(i+2): constrained on i with offset 2.  (body[0] is the DISTRIBUTE.)
  IterationSet s1 =
      owner_computes(*proc.body[1]->body[0]->lhs, ad, env);
  ASSERT_TRUE(s1.is_constrained());
  EXPECT_EQ(s1.constraint.var, "i");
  EXPECT_EQ(s1.constraint.offset, 2);

  // s = 1: universal.
  IterationSet s2 = owner_computes(*proc.body[1]->body[1]->lhs, std::nullopt, env);
  EXPECT_TRUE(s2.is_universal());

  // x(7): fixed owner guard.
  IterationSet s3 = owner_computes(*proc.body[2]->lhs, ad, env);
  ASSERT_TRUE(s3.is_constrained());
  EXPECT_FALSE(s3.constraint.uses_var());
  EXPECT_EQ(s3.constraint.fixed.konst, 7);
}

TEST(Partition, UnifyIterationSets) {
  OwnershipConstraint c;
  c.var = "i";
  c.array = "x";
  c.dim = 0;
  IterationSet a = IterationSet::constrained(c);
  IterationSet b = IterationSet::universal();
  auto u1 = unify_iteration_sets({a, a, b});
  ASSERT_TRUE(u1.has_value());
  EXPECT_TRUE(u1->is_constrained());
  OwnershipConstraint c2 = c;
  c2.offset = 3;
  auto u2 = unify_iteration_sets({a, IterationSet::constrained(c2)});
  EXPECT_FALSE(u2.has_value());
  auto u3 = unify_iteration_sets({IterationSet::runtime()});
  EXPECT_FALSE(u3.has_value());
}

// ---------------------------------------------------------------------------
// Symbolic sections and hoisting classification
// ---------------------------------------------------------------------------

AffineForm var_form(const std::string& v, int64_t c = 0) {
  AffineForm f;
  f.coeffs[v] = 1;
  f.konst = c;
  return f;
}

TEST(SymSection, SubstituteAndWiden) {
  SymTriplet t = SymTriplet::single(var_form("i", 5));
  auto w = widen_over_loop(t, "i", AffineForm{{}, 1}, AffineForm{{}, 95}, 1);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->lb.konst, 6);
  EXPECT_EQ(w->ub.konst, 100);
  // Widening over a var not referenced is the identity.
  auto id = widen_over_loop(t, "j", AffineForm{{}, 1}, AffineForm{{}, 10}, 1);
  EXPECT_EQ(id->str(), t.str());
}

TEST(SymSection, StridedWidening) {
  SymTriplet t = SymTriplet::single(var_form("j"));
  auto w = widen_over_loop(t, "j", var_form("k", 1), AffineForm{{}, 64}, 4);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->step, 4);
}

TEST(Hoisting, AntiShiftAllowsVectorization) {
  // write x(i), read x(i+5): anti -> hoist legal.
  SymSection write = {SymTriplet::single(var_form("i"))};
  SymSection read = {SymTriplet::single(var_form("i", 5))};
  EXPECT_FALSE(blocks_hoist(write, read, {}, "i", true));
}

TEST(Hoisting, FlowShiftBlocks) {
  SymSection write = {SymTriplet::single(var_form("i"))};
  SymSection read = {SymTriplet::single(var_form("i", -1))};
  EXPECT_TRUE(blocks_hoist(write, read, {}, "i", true));
}

TEST(Hoisting, PinnedDimensionMakesLoopIndependent) {
  // write x(range, i), read x(range, i): second dim pins iterations.
  SymSection write = {SymTriplet{AffineForm{{}, 1}, AffineForm{{}, 95}, 1},
                      SymTriplet::single(var_form("i"))};
  SymSection read = {SymTriplet{AffineForm{{}, 6}, AffineForm{{}, 100}, 1},
                     SymTriplet::single(var_form("i"))};
  EXPECT_FALSE(blocks_hoist(write, read, {}, "i", false));
  EXPECT_TRUE(blocks_hoist(write, read, {}, "i", true));
}

TEST(Hoisting, RangeDisjointnessViaLoopBounds) {
  // dgefa: write column j with j in [k+1, n]; read column k: disjoint.
  LoopCtx ctx = {{"j", var_form("k", 1), var_form("n"), 1}};
  SymSection write = {SymTriplet{var_form("k", 1), var_form("n"), 1},
                      SymTriplet::single(var_form("j"))};
  SymSection read = {SymTriplet{var_form("k", 1), var_form("n"), 1},
                     SymTriplet::single(var_form("k"))};
  EXPECT_FALSE(blocks_hoist(write, read, ctx, "j", true));
}

TEST(Hoisting, LoopInvariantElementBlocks) {
  // write x(5), read x(5) across loop i: carried true dependence.
  SymSection write = {SymTriplet::single(AffineForm{{}, 5})};
  SymSection read = {SymTriplet::single(AffineForm{{}, 5})};
  EXPECT_TRUE(blocks_hoist(write, read, {}, "i", false));
}

// ---------------------------------------------------------------------------
// Golden structure: Figures 2, 10, 12, 3
// ---------------------------------------------------------------------------

const char* kFigure1 = R"(
      program p1
      real x(100)
      integer i
      distribute x(block)
      call f1(x)
      end
      subroutine f1(x)
      real x(100)
      integer i
      do i = 1, 95
        x(i) = f(x(i+5))
      enddo
      end
)";

struct Counts {
  int sends = 0, recvs = 0, bcasts = 0, dos = 0, ifs = 0;
};

Counts count_stmts(const Procedure& proc) {
  Counts c;
  walk_stmts(proc.body, [&](const Stmt& s) {
    switch (s.kind) {
      case StmtKind::Send: ++c.sends; break;
      case StmtKind::Recv: ++c.recvs; break;
      case StmtKind::Broadcast: ++c.bcasts; break;
      case StmtKind::Do: ++c.dos; break;
      case StmtKind::If: ++c.ifs; break;
      default: break;
    }
  });
  return c;
}

/// Is `child` nested (at any depth) inside a DO loop of `proc`?
bool inside_loop(const Procedure& proc, StmtKind kind) {
  bool found = false;
  std::function<void(const std::vector<StmtPtr>&, bool)> scan =
      [&](const std::vector<StmtPtr>& stmts, bool in_loop) {
        for (const auto& s : stmts) {
          if (s->kind == kind && in_loop) found = true;
          scan(s->then_body, in_loop);
          scan(s->else_body, in_loop);
          scan(s->body, in_loop || s->kind == StmtKind::Do);
        }
      };
  scan(proc.body, false);
  return found;
}

TEST(Golden, Figure2CompiledStencil) {
  CodegenOptions opt;
  opt.n_procs = 4;
  Compiler compiler(opt);
  CompileResult r = compiler.compile_source(kFigure1);
  const Procedure* f1 = r.spmd.ast.find("f1");
  ASSERT_NE(f1, nullptr);
  Counts c = count_stmts(*f1);
  // Fig. 2 shape: one guarded send + one guarded recv, both OUTSIDE the
  // loop (vectorized), and reduced loop bounds.
  EXPECT_EQ(c.sends, 1);
  EXPECT_EQ(c.recvs, 1);
  EXPECT_FALSE(inside_loop(*f1, StmtKind::Send));
  EXPECT_FALSE(inside_loop(*f1, StmtKind::Recv));
  EXPECT_GE(r.spmd.stats.loops_bounds_reduced, 1);
  // The reduced loop's upper bound holds the paper's min(...) form.
  std::string text = print_procedure(*f1);
  EXPECT_NE(text.find("min("), std::string::npos);
  EXPECT_NE(text.find("my$p"), std::string::npos);
  // Overlap storage: +5 upper overlap on 25 local elements (Fig. 2's
  // REAL X(30)), consistent with the interprocedural estimate.
  bool found = false;
  for (const auto& info : r.spmd.storage.at("f1"))
    if (info.array == "x") {
      found = true;
      EXPECT_EQ(info.local_extent, 25);
      EXPECT_EQ(info.overlap_hi, 5);
      EXPECT_EQ(info.est_hi, 5);
      EXPECT_FALSE(info.used_buffer);
    }
  EXPECT_TRUE(found);
}

TEST(Golden, Figure3RuntimeResolution) {
  CodegenOptions opt;
  opt.n_procs = 4;
  opt.strategy = Strategy::RuntimeResolution;
  Compiler compiler(opt);
  CompileResult r = compiler.compile_source(kFigure1);
  const Procedure* f1 = r.spmd.ast.find("f1");
  ASSERT_NE(f1, nullptr);
  // Fig. 3 shape: element send/recv guarded by owner tests INSIDE the loop.
  EXPECT_TRUE(inside_loop(*f1, StmtKind::Send));
  EXPECT_TRUE(inside_loop(*f1, StmtKind::Recv));
  std::string text = print_procedure(*f1);
  EXPECT_NE(text.find("owner$x"), std::string::npos);
  EXPECT_GE(r.spmd.stats.runtime_resolved_stmts, 1);
}

const char* kFigure4 = R"(
      program p1
      real x(100,100)
      real y(100,100)
      integer i, j
      align y(i,j) with x(j,i)
      distribute x(block,:)
      do i = 1, 100
        call f1(x, i)
      enddo
      do j = 1, 100
        call f1(y, j)
      enddo
      end
      subroutine f1(z, i)
      real z(100,100)
      integer i, k
      do k = 1, 95
        z(k,i) = f(z(k+5,i))
      enddo
      end
)";

TEST(Golden, Figure10InterproceduralOutput) {
  CodegenOptions opt;
  opt.n_procs = 4;
  Compiler compiler(opt);
  CompileResult r = compiler.compile_source(kFigure4);

  // Cloning produced two versions of f1.
  const Procedure* main = r.spmd.ast.find("p1");
  ASSERT_NE(main, nullptr);
  EXPECT_EQ(r.spmd.stats.clones_created, 1);

  // The shift communication for the row version is vectorized into p1,
  // outside both call loops: exactly one send/recv pair in main.
  Counts cm = count_stmts(*main);
  EXPECT_EQ(cm.sends, 1);
  EXPECT_EQ(cm.recvs, 1);
  EXPECT_FALSE(inside_loop(*main, StmtKind::Send));

  // Neither clone contains communication (delayed to the caller).
  for (const auto& p : r.spmd.ast.procedures) {
    if (p->name.rfind("f1", 0) != 0) continue;
    Counts c = count_stmts(*p);
    EXPECT_EQ(c.sends + c.recvs, 0) << p->name;
  }

  // One of the two caller loops had its bounds reduced (the j loop for
  // the column version); message vectorization crossed the boundary.
  EXPECT_GE(r.spmd.stats.delayed_comms_exported, 1);
  EXPECT_GE(r.spmd.stats.delayed_comms_absorbed, 1);
  EXPECT_GE(r.spmd.stats.delayed_iter_sets_exported, 1);
}

TEST(Golden, Figure12ImmediateInstantiation) {
  CodegenOptions opt;
  opt.n_procs = 4;
  opt.strategy = Strategy::Intraprocedural;
  Compiler compiler(opt);
  CompileResult r = compiler.compile_source(kFigure4);

  // Fig. 12: messages stay inside the callee (per-invocation), and no
  // pending communication crosses to the caller.
  EXPECT_EQ(r.spmd.stats.delayed_comms_exported, 0);
  const Procedure* main = r.spmd.ast.find("p1");
  Counts cm = count_stmts(*main);
  EXPECT_EQ(cm.sends + cm.recvs, 0);
  bool callee_has_comm = false;
  for (const auto& p : r.spmd.ast.procedures)
    if (p->name.rfind("f1", 0) == 0 && count_stmts(*p).sends > 0)
      callee_has_comm = true;
  EXPECT_TRUE(callee_has_comm);
}

TEST(Golden, ImmediateVsDelayedMessageCounts) {
  // The quantitative claim of §5.5: delayed instantiation sends ONE
  // vectorized message per neighbor pair where immediate instantiation
  // sends one per invocation (100x).
  auto run_with = [&](Strategy strategy) {
    CodegenOptions opt;
    opt.n_procs = 4;
    opt.strategy = strategy;
    Compiler compiler(opt);
    CompileResult r = compiler.compile_source(kFigure4);
    return simulate(r.spmd);
  };
  ExecResult inter = run_with(Strategy::Interprocedural);
  ExecResult intra = run_with(Strategy::Intraprocedural);
  EXPECT_EQ(inter.messages, 3);       // one 5x100 section per neighbor pair
  EXPECT_EQ(intra.messages, 300);     // 100 invocations x 3 pairs
  EXPECT_EQ(inter.bytes, intra.bytes);  // same data volume
  EXPECT_LT(inter.sim_time_us, intra.sim_time_us);
}

// ---------------------------------------------------------------------------
// Dynamic data decomposition (Fig. 16)
// ---------------------------------------------------------------------------

const char* kFigure15 = R"(
      program p1
      real x(100)
      integer k, i
      distribute x(block)
      do k = 1, 10
        call f1(x)
        call f1(x)
      enddo
      call f2(x)
      end
      subroutine f1(x)
      real x(100)
      integer i
      distribute x(cyclic)
      do i = 1, 100
        x(i) = x(i) + 1.0
      enddo
      end
      subroutine f2(x)
      real x(100)
      integer i
      do i = 1, 100
        x(i) = 2.0 * i
      enddo
      end
)";

int static_remaps(const SpmdProgram& spmd, bool include_marks) {
  int n = 0;
  for (const auto& p : spmd.ast.procedures)
    walk_stmts(p->body, [&](const Stmt& s) {
      if (s.kind == StmtKind::Remap) ++n;
      if (include_marks && s.kind == StmtKind::MarkDist) ++n;
    });
  return n;
}

TEST(DynDecomp, Figure16Pipeline) {
  auto compile_with = [&](DynDecompOpt level) {
    CodegenOptions opt;
    opt.n_procs = 4;
    opt.dyn_decomp = level;
    Compiler compiler(opt);
    return compiler.compile_source(kFigure15);
  };
  // 16a: before/after remaps at both calls.
  CompileResult a = compile_with(DynDecompOpt::None);
  EXPECT_EQ(static_remaps(a.spmd, false), 4);
  // 16b: dead elimination + coalescing leave one pair in the loop.
  CompileResult b = compile_with(DynDecompOpt::Live);
  EXPECT_EQ(static_remaps(b.spmd, false), 2);
  EXPECT_GE(b.spmd.stats.remaps_eliminated_dead, 1);
  EXPECT_GE(b.spmd.stats.remaps_coalesced, 1);
  // 16c: both hoisted out of the loop (still 2 static, but executed once).
  CompileResult c = compile_with(DynDecompOpt::LiveInvariant);
  EXPECT_GE(c.spmd.stats.remaps_hoisted, 2);
  ExecResult rc = simulate(c.spmd);
  EXPECT_EQ(rc.remaps_executed, 2);
  // 16d: the restore remap becomes a no-copy relabel.
  CompileResult d = compile_with(DynDecompOpt::Full);
  EXPECT_EQ(d.spmd.stats.remaps_marked_in_place, 1);
  ExecResult rd = simulate(d.spmd);
  EXPECT_EQ(rd.remaps_executed, 1);
}

TEST(DynDecomp, RemapCountScalesWithIterationsWhenUnoptimized) {
  CodegenOptions opt;
  opt.n_procs = 4;
  opt.dyn_decomp = DynDecompOpt::None;
  Compiler compiler(opt);
  ExecResult run = simulate(compiler.compile_source(kFigure15).spmd);
  EXPECT_EQ(run.remaps_executed, 40);  // 4 per iteration x 10
}

// ---------------------------------------------------------------------------
// Storage / parameterized overlaps (Fig. 13/14)
// ---------------------------------------------------------------------------

TEST(Storage, ParameterizedOverlapsFlagFormalArrays) {
  CodegenOptions opt;
  opt.n_procs = 4;
  opt.parameterized_overlaps = true;
  Compiler compiler(opt);
  CompileResult r = compiler.compile_source(kFigure1);
  bool parameterized = false;
  for (const auto& info : r.spmd.storage.at("f1"))
    if (info.array == "x" && info.parameterized) parameterized = true;
  EXPECT_TRUE(parameterized);
}

TEST(Storage, ReplicatedArraysHoldWholeCopy) {
  CodegenOptions opt;
  opt.n_procs = 4;
  Compiler compiler(opt);
  CompileResult r = compiler.compile_source(R"(
      program p
      real x(100)
      real w(50)
      integer i
      distribute x(block)
      do i = 1, 100
        x(i) = 1.0
      enddo
      end
)");
  for (const auto& info : r.spmd.storage.at("p")) {
    if (info.array == "w") {
      EXPECT_EQ(info.dist_dim, -1);
      EXPECT_EQ(info.local_words(), 50);
    }
    if (info.array == "x") {
      EXPECT_EQ(info.local_words(), 25);
    }
  }
}

// ---------------------------------------------------------------------------
// Cloning fallback integration
// ---------------------------------------------------------------------------

TEST(RuntimeFallback, ThresholdedProgramStillRunsCorrectly) {
  IpaOptions ipa;
  ipa.max_procedures = 2;  // force run-time resolution for the callee
  CodegenOptions opt;
  opt.n_procs = 4;
  Compiler compiler(opt, ipa);
  CompileResult r = compiler.compile_source(kFigure4);
  EXPECT_FALSE(r.ipa.runtime_fallback.empty());
  ExecResult run = simulate(r.spmd);
  EXPECT_GT(run.messages, 3);  // element traffic instead of vectorized
}

}  // namespace
}  // namespace fortd
