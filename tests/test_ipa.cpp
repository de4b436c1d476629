// Interprocedural analysis tests: the augmented call graph (Fig. 5),
// reaching decompositions (Figs. 6/7), procedure cloning (Fig. 8),
// GMOD/GREF side effects, overlap estimation (Fig. 13), and
// recompilation analysis (§8).
#include <gtest/gtest.h>

#include "driver/compiler.hpp"
#include "ipa/cloning.hpp"
#include "ipa/overlap_prop.hpp"

namespace fortd {
namespace {

// The paper's Figure 4 program (with F1 containing the k loop as §5.3
// assumes, and F1 calling F2 to exercise the call chain).
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
      integer i
      call f2(z, i)
      end

      subroutine f2(z, i)
      real z(100,100)
      integer i, k
      do k = 1, 95
        z(k,i) = f(z(k+5,i))
      enddo
      end
)";

TEST(Acg, Figure5Structure) {
  BoundProgram bp = parse_and_bind(kFigure4);
  AugmentedCallGraph acg = AugmentedCallGraph::build(bp);

  auto to_f1 = acg.calls_to("f1");
  ASSERT_EQ(to_f1.size(), 2u);
  EXPECT_EQ(to_f1[0]->caller, "p1");
  // Both calls sit inside one loop each.
  ASSERT_EQ(to_f1[0]->enclosing_loops.size(), 1u);
  EXPECT_EQ(to_f1[0]->enclosing_loops[0].var, "i");
  ASSERT_EQ(to_f1[1]->enclosing_loops.size(), 1u);
  EXPECT_EQ(to_f1[1]->enclosing_loops[0].var, "j");

  // Fig. 5 annotation: formal #1 of f1 receives a loop index 1:100:1.
  auto it = to_f1[0]->formal_loop_ranges.find(1);
  ASSERT_NE(it, to_f1[0]->formal_loop_ranges.end());
  EXPECT_EQ(it->second, Triplet(1, 100, 1));

  auto to_f2 = acg.calls_to("f2");
  ASSERT_EQ(to_f2.size(), 1u);
  EXPECT_EQ(to_f2[0]->caller, "f1");
  EXPECT_TRUE(to_f2[0]->enclosing_loops.empty());
}

TEST(Acg, TopologicalOrder) {
  BoundProgram bp = parse_and_bind(kFigure4);
  AugmentedCallGraph acg = AugmentedCallGraph::build(bp);
  EXPECT_EQ(acg.topological_order(),
            (std::vector<std::string>{"p1", "f1", "f2"}));
  EXPECT_EQ(acg.reverse_topological_order(),
            (std::vector<std::string>{"f2", "f1", "p1"}));
}

TEST(Acg, RecursionRejected) {
  BoundProgram bp = parse_and_bind(R"(
      program p
      call a()
      end
      subroutine a()
      call b()
      end
      subroutine b()
      call a()
      end
)");
  EXPECT_THROW(AugmentedCallGraph::build(bp), CompileError);
}

// ---------------------------------------------------------------------------

TEST(Summaries, AlignComposition) {
  BoundProgram bp = parse_and_bind(kFigure4);
  ProcSummary sum = compute_summary(bp, "p1");
  // DISTRIBUTE x(BLOCK,:) must give x (BLOCK,:) and y (:,BLOCK).
  ASSERT_EQ(sum.distribute_stmts.size(), 1u);
  auto xspec = spec_for_array(*sum.distribute_stmts[0], "x", 2, sum.align);
  ASSERT_TRUE(xspec.has_value());
  EXPECT_EQ(xspec->dists[0].kind, DistKind::Block);
  EXPECT_EQ(xspec->dists[1].kind, DistKind::None);
  auto yspec = spec_for_array(*sum.distribute_stmts[0], "y", 2, sum.align);
  ASSERT_TRUE(yspec.has_value());
  EXPECT_EQ(yspec->dists[0].kind, DistKind::None);
  EXPECT_EQ(yspec->dists[1].kind, DistKind::Block);
}

TEST(Summaries, LocalReachingAtCallSites) {
  BoundProgram bp = parse_and_bind(kFigure4);
  ProcSummary sum = compute_summary(bp, "p1");
  ASSERT_EQ(sum.local_reaching.size(), 2u);
  // Call 1: x reaches with (BLOCK,:).
  const auto& r1 = sum.local_reaching[0].reaching;
  ASSERT_TRUE(r1.count("x"));
  ASSERT_EQ(r1.at("x").size(), 1u);
  EXPECT_EQ(r1.at("x").begin()->dists[0].kind, DistKind::Block);
  // Call 2: y reaches with (:,BLOCK).
  const auto& r2 = sum.local_reaching[1].reaching;
  ASSERT_TRUE(r2.count("y"));
  EXPECT_EQ(r2.at("y").begin()->dists[1].kind, DistKind::Block);
}

TEST(Summaries, TopPlaceholderInCallee) {
  BoundProgram bp = parse_and_bind(kFigure4);
  ProcSummary sum = compute_summary(bp, "f1");
  // LocalReaching(S3) = { <top, z> } — f1 inherits z's decomposition.
  ASSERT_EQ(sum.local_reaching.size(), 1u);
  ASSERT_TRUE(sum.local_reaching[0].reaching.count("z"));
  EXPECT_TRUE(sum.local_reaching[0].reaching.at("z").begin()->is_top);
}

TEST(Summaries, ModRefAndSections) {
  BoundProgram bp = parse_and_bind(kFigure4);
  ProcSummary sum = compute_summary(bp, "f2");
  EXPECT_TRUE(sum.mod.count("z"));
  EXPECT_TRUE(sum.ref.count("z"));
  ASSERT_TRUE(sum.defs.count("z"));
  // z(k,i) over k=1:95 — section [1:95] x [whole dim] (i unknown).
  const Rsd& def = sum.defs.at("z").sections()[0];
  EXPECT_EQ(def.dim(0), Triplet(1, 95));
}

TEST(Summaries, OverlapOffsets) {
  BoundProgram bp = parse_and_bind(kFigure4);
  ProcSummary sum = compute_summary(bp, "f2");
  ASSERT_TRUE(sum.overlaps.count("z"));
  EXPECT_EQ(sum.overlaps.at("z").pos[0], 5);  // z(k+5,i) vs z(k,i)
  EXPECT_EQ(sum.overlaps.at("z").neg[0], 0);
}

TEST(Summaries, HashChangesWithEdits) {
  BoundProgram a = parse_and_bind("program p\ninteger x\nx = 1\nend");
  BoundProgram b = parse_and_bind("program p\ninteger x\nx = 2\nend");
  BoundProgram c = parse_and_bind("program p\ninteger x\nx = 1\nend");
  EXPECT_NE(hash_procedure(*a.ast.procedures[0]),
            hash_procedure(*b.ast.procedures[0]));
  EXPECT_EQ(hash_procedure(*a.ast.procedures[0]),
            hash_procedure(*c.ast.procedures[0]));
}

// ---------------------------------------------------------------------------

TEST(SideEffects, TransitiveGmodGref) {
  BoundProgram bp = parse_and_bind(kFigure4);
  AugmentedCallGraph acg = AugmentedCallGraph::build(bp);
  auto summaries = compute_all_summaries(bp);
  SideEffects fx = compute_side_effects(bp, acg, summaries);
  // f1 itself writes nothing, but f2 writes z through it.
  EXPECT_TRUE(fx.gmod.at("f1").count("z"));
  // p1 sees writes to both x and y through the calls.
  EXPECT_TRUE(fx.gmod.at("p1").count("x"));
  EXPECT_TRUE(fx.gmod.at("p1").count("y"));
  // Appear(f1) includes z.
  EXPECT_TRUE(fx.appear("f1", bp).count("z"));
}

// ---------------------------------------------------------------------------

TEST(ReachingDecomps, Figure7Solution) {
  BoundProgram bp = parse_and_bind(kFigure4);
  AugmentedCallGraph acg = AugmentedCallGraph::build(bp);
  auto summaries = compute_all_summaries(bp);
  ReachingDecomps rd = compute_reaching_decomps(bp, acg, summaries);

  // Reaching(f1) for z = union of row and column distributions.
  auto zf1 = rd.reaching.at("f1").at("z");
  ASSERT_EQ(zf1.size(), 2u);
  // Reaching(f2) inherits both through f1.
  auto zf2 = rd.reaching.at("f2").at("z");
  EXPECT_EQ(zf2.size(), 2u);
  EXPECT_TRUE(rd.has_conflict("f2", "z"));
  EXPECT_FALSE(rd.unique_spec("f2", "z").has_value());
}

TEST(ReachingDecomps, DynamicRedistributionPointwise) {
  BoundProgram bp = parse_and_bind(R"(
      program p
      real x(100)
      integer i
      distribute x(block)
      x(1) = 0.0
      distribute x(cyclic)
      x(2) = 0.0
      end
)");
  AugmentedCallGraph acg = AugmentedCallGraph::build(bp);
  auto summaries = compute_all_summaries(bp);
  ReachingDecomps rd = compute_reaching_decomps(bp, acg, summaries);
  const Procedure& proc = *bp.ast.procedures[0];
  auto at1 = rd.specs_at("p", proc.body[1].get(), "x");
  ASSERT_EQ(at1.size(), 1u);
  EXPECT_EQ(at1.begin()->dists[0].kind, DistKind::Block);
  auto at2 = rd.specs_at("p", proc.body[3].get(), "x");
  ASSERT_EQ(at2.size(), 1u);
  EXPECT_EQ(at2.begin()->dists[0].kind, DistKind::Cyclic);
}

// ---------------------------------------------------------------------------

TEST(Cloning, Figure8CreatesRowAndColVersions) {
  BoundProgram bp = parse_and_bind(kFigure4);
  IpaContext ctx = run_ipa(bp);
  // f1 and f2 each get one clone (two reaching decompositions).
  EXPECT_EQ(ctx.clones_created, 2);
  ASSERT_EQ(bp.ast.procedures.size(), 5u);
  EXPECT_NE(bp.find("f1$2"), nullptr);
  EXPECT_NE(bp.find("f2$2"), nullptr);
  EXPECT_EQ(ctx.clone_origin.at("f1$2"), "f1");
  // After cloning, every procedure sees a unique decomposition for z.
  for (const char* proc : {"f1", "f1$2", "f2", "f2$2"})
    EXPECT_FALSE(ctx.reaching.has_conflict(proc, "z")) << proc;
}

TEST(Cloning, SharedCloneForEqualDecomps) {
  // Two call sites with the SAME decomposition must share one version.
  BoundProgram bp = parse_and_bind(R"(
      program p
      real x(100), y(100)
      integer i
      distribute x(block)
      distribute y(block)
      call f(x)
      call f(y)
      end
      subroutine f(a)
      real a(100)
      integer i
      do i = 1, 100
        a(i) = 0.0
      enddo
      end
)");
  IpaContext ctx = run_ipa(bp);
  EXPECT_EQ(ctx.clones_created, 0);
}

TEST(Cloning, GrowthThresholdForcesRuntimeFallback) {
  BoundProgram bp = parse_and_bind(kFigure4);
  IpaOptions opts;
  opts.max_procedures = 3;  // no room for any clone
  IpaContext ctx = run_ipa(bp, opts);
  EXPECT_EQ(ctx.clones_created, 0);
  EXPECT_TRUE(ctx.runtime_fallback.count("f1"));
}

TEST(Cloning, FilterAvoidsUnnecessaryClones) {
  // The callee never touches the differently-distributed arrays, so
  // Filter(..., Appear) must prevent cloning.
  BoundProgram bp = parse_and_bind(R"(
      program p
      real x(100), y(100)
      integer s
      distribute x(block)
      distribute y(cyclic)
      call f(x, s)
      call f(y, s)
      end
      subroutine f(a, s)
      real a(100)
      integer s
      s = s + 1
      end
)");
  IpaContext ctx = run_ipa(bp);
  EXPECT_EQ(ctx.clones_created, 0);
}

// ---------------------------------------------------------------------------

TEST(Overlaps, EstimatePropagatesUpAndDown) {
  BoundProgram bp = parse_and_bind(kFigure4);
  AugmentedCallGraph acg = AugmentedCallGraph::build(bp);
  auto summaries = compute_all_summaries(bp);
  OverlapEstimates est = compute_overlap_estimates(bp, acg, summaries);
  // f2's +5 offset on z propagates up to x and y in p1...
  ASSERT_NE(est.lookup("p1", "x"), nullptr);
  EXPECT_EQ(est.lookup("p1", "x")->pos[0], 5);
  EXPECT_EQ(est.lookup("p1", "y")->pos[0], 5);
  // ...and back down to f1 (which has no local refs at all).
  ASSERT_NE(est.lookup("f1", "z"), nullptr);
  EXPECT_EQ(est.lookup("f1", "z")->pos[0], 5);
}

// ---------------------------------------------------------------------------

// §8 is decided by the procedure cache: compile, then compile the edited
// program warm in the same Compiler and read what it regenerated.
std::set<std::string> regenerated_by_edit(const std::string& before_src,
                                          const std::string& after_src) {
  Compiler compiler;
  compiler.compile_source(before_src);
  CompileResult r = compiler.compile_source(after_src);
  return {r.regenerated.begin(), r.regenerated.end()};
}

TEST(Recompilation, OnlyEditedAndAffectedProceduresRecompile) {
  const char* before_src = kFigure4;
  // Edit: scale f2's right-hand side — the body changes but none of the
  // interface summaries (MOD/REF, def/use sections, overlaps) do.
  std::string after_src = before_src;
  size_t pos = after_src.find("z(k,i) = f(z(k+5,i))");
  ASSERT_NE(pos, std::string::npos);
  after_src.replace(pos, 20, "z(k,i) = 2.0*f(z(k+5,i))");

  auto to_recompile = regenerated_by_edit(before_src, after_src);
  // f2 (and its clone) changed; p1 and f1 keep their interface inputs.
  EXPECT_TRUE(to_recompile.count("f2"));
  EXPECT_FALSE(to_recompile.count("p1"));
  EXPECT_FALSE(to_recompile.count("f1"));
}

TEST(Recompilation, InterfaceChangePropagatesToCallers) {
  const char* before_src = kFigure4;
  // Edit f2 so it also writes a second column band — its def summary
  // (interface) changes, so callers must recompile.
  std::string after_src = before_src;
  size_t pos = after_src.find("z(k,i) = f(z(k+5,i))");
  ASSERT_NE(pos, std::string::npos);
  after_src.replace(pos, 20, "z(k,i) = f(z(k+5,i))\n        z(k+1,i) = 0.0");

  auto to_recompile = regenerated_by_edit(before_src, after_src);
  EXPECT_TRUE(to_recompile.count("f2"));
  EXPECT_TRUE(to_recompile.count("f1"));  // consumes f2's interface
}

TEST(Recompilation, NoEditNoRecompile) {
  EXPECT_TRUE(regenerated_by_edit(kFigure4, kFigure4).empty());
}

}  // namespace
}  // namespace fortd
