// Interprocedural may-alias analysis (ipa/alias.hpp): pair introduction
// at call sites (overlapping actuals, sequence-associated sections,
// COMMON visibility), caller→callee propagation over the ACG, schedule
// invariance of the map across serial and parallel runs, and stability of the §8 recompilation digests the entries fold into.
#include <gtest/gtest.h>

#include "../bench/programs.hpp"
#include "ipa/alias.hpp"
#include "ipa/recompilation.hpp"
#include "support/thread_pool.hpp"

namespace fortd {
namespace {

// ---------------------------------------------------------------------------
// Pair introduction
// ---------------------------------------------------------------------------

const char* kSelfArg = R"(
      program aliash
      real a(64)
      integer i
      distribute a(block)
      do i = 1, 64
        a(i) = i * 1.0
      enddo
      call upd(a, a)
      end

      subroutine upd(x, y)
      real x(64)
      real y(64)
      integer i
      do i = 1, 64
        x(i) = y(i) + 1.0
      enddo
      end
)";

TEST(AliasAnalysis, SelfArgumentInducesFormalPair) {
  BoundProgram bp = parse_and_bind(kSelfArg);
  AugmentedCallGraph acg = AugmentedCallGraph::build(bp);
  AliasMap am = compute_alias_map(bp, acg);
  ASSERT_TRUE(am.may_alias("upd", "x", "y"));
  ASSERT_TRUE(am.may_alias("upd", "y", "x"));  // order-insensitive
  const AliasPair* pair = am.find("upd", "x", "y");
  ASSERT_NE(pair, nullptr);
  EXPECT_EQ(pair->via, "aliash");
  EXPECT_GT(pair->loc.line, 0);  // call-site provenance
  EXPECT_EQ(am.of("aliash"), nullptr);  // the caller itself has no pairs
}

TEST(AliasAnalysis, DistinctArraysStayDistinct) {
  BoundProgram bp = parse_and_bind(R"(
      program p
      real a(64)
      real b(64)
      distribute a(block)
      distribute b(block)
      call upd(a, b)
      end

      subroutine upd(x, y)
      real x(64)
      real y(64)
      integer i
      do i = 1, 64
        x(i) = y(i) + 1.0
      enddo
      end
)");
  AugmentedCallGraph acg = AugmentedCallGraph::build(bp);
  AliasMap am = compute_alias_map(bp, acg);
  EXPECT_EQ(am.total_pairs(), 0) << am.str();
}

// Fortran sequence association: an actual a(c) bound to a formal of
// extent E covers a(c:c+E-1). Disjoint covers (exact RSD intersection)
// refine the pair away; overlapping covers keep it.
TEST(AliasAnalysis, SequenceAssociatedSectionsRefine) {
  const char* pattern = R"(
      program p
      real a(64)
      distribute a(block)
      call sub(a(1), a(%s))
      end

      subroutine sub(x, y)
      real x(32)
      real y(32)
      integer i
      do i = 1, 32
        x(i) = y(i) + 1.0
      enddo
      end
)";
  auto with_offset = [&](const char* c) {
    std::string src = pattern;
    src.replace(src.find("%s"), 2, c);
    BoundProgram bp = parse_and_bind(src);
    AugmentedCallGraph acg = AugmentedCallGraph::build(bp);
    return compute_alias_map(bp, acg);
  };
  // a(1:32) vs a(33:64): provably disjoint, no pair.
  EXPECT_EQ(with_offset("33").total_pairs(), 0);
  // a(1:32) vs a(16:47): overlap, the pair survives.
  EXPECT_TRUE(with_offset("16").may_alias("sub", "x", "y"));
}

TEST(AliasAnalysis, CommonVisibilityInducesFormalGlobalPair) {
  BoundProgram bp = parse_and_bind(R"(
      program p
      real g(64)
      integer i
      common /shared/ g
      distribute g(block)
      do i = 1, 64
        g(i) = i * 1.0
      enddo
      call upd(g)
      end

      subroutine upd(x)
      real x(64)
      real g(64)
      integer i
      common /shared/ g
      do i = 1, 64
        x(i) = g(i) + 1.0
      enddo
      end
)");
  AugmentedCallGraph acg = AugmentedCallGraph::build(bp);
  AliasMap am = compute_alias_map(bp, acg);
  EXPECT_TRUE(am.may_alias("upd", "x", "g")) << am.str();
}

TEST(AliasAnalysis, PairsPropagateToTransitiveCallees) {
  BoundProgram bp = parse_and_bind(R"(
      program p
      real a(64)
      distribute a(block)
      call outer(a, a)
      end

      subroutine outer(x, y)
      real x(64)
      real y(64)
      call inner(x, y)
      end

      subroutine inner(u, v)
      real u(64)
      real v(64)
      integer i
      do i = 1, 64
        u(i) = v(i) + 1.0
      enddo
      end
)");
  AugmentedCallGraph acg = AugmentedCallGraph::build(bp);
  AliasMap am = compute_alias_map(bp, acg);
  EXPECT_TRUE(am.may_alias("outer", "x", "y"));
  EXPECT_TRUE(am.may_alias("inner", "u", "v")) << am.str();
}

// ---------------------------------------------------------------------------
// Schedule invariance
// ---------------------------------------------------------------------------

// The map must be byte-identical across the serial run and parallel
// runs at 2 and 4 jobs — entries are canonical set unions, and every
// schedule publishes callers before callees.
TEST(AliasAnalysis, ScheduleInvariantOnWorkloadGenerators) {
  for (const std::string& src :
       {bench::cloning_fanout(8, 3, 32), bench::dgefa(16)}) {
    BoundProgram bp = parse_and_bind(src);
    AugmentedCallGraph acg = AugmentedCallGraph::build(bp);
    const AliasMap serial = compute_alias_map(bp, acg);
    for (int workers : {1, 3}) {
      ThreadPool pool(workers);
      const AliasMap parallel = compute_alias_map(bp, acg, &pool);
      EXPECT_EQ(serial.str(), parallel.str()) << "jobs=" << workers + 1;
      EXPECT_EQ(serial.total_pairs(), parallel.total_pairs());
    }
  }
}

// ---------------------------------------------------------------------------
// §8 digests
// ---------------------------------------------------------------------------

// A procedure's pair set, empty when it has none.
std::set<AliasPair> pairs_of(const AliasMap& am, const std::string& proc) {
  const std::set<AliasPair>* set = am.of(proc);
  return set ? *set : std::set<AliasPair>{};
}

TEST(AliasAnalysis, DigestsAreScheduleInvariant) {
  BoundProgram bp1 = parse_and_bind(kSelfArg);
  BoundProgram bp2 = parse_and_bind(kSelfArg);
  ThreadPool pool(3);
  IpaContext c1 = run_ipa(bp1, {}, nullptr);
  IpaContext c2 = run_ipa(bp2, {}, &pool);
  ASSERT_EQ(c1.alias.str(), c2.alias.str());
  const OverlapEstimates ov1 =
      compute_overlap_estimates(bp1, c1.acg, c1.summaries);
  const OverlapEstimates ov2 =
      compute_overlap_estimates(bp2, c2.acg, c2.summaries);
  for (const auto& proc : bp1.ast.procedures) {
    EXPECT_EQ(pairs_of(c1.alias, proc->name), pairs_of(c2.alias, proc->name))
        << proc->name;
    EXPECT_EQ(hash_codegen_inputs(proc->name, c1, ov1),
              hash_codegen_inputs(proc->name, c2, ov2))
        << proc->name;
  }
}

// A changed alias environment must change the codegen-input digest even
// when every other interprocedural fact is identical: 'upd' has the same
// body, summaries, and reaching decompositions in both programs — only
// the aliasing of its formals differs.
TEST(AliasAnalysis, AliasEnvironmentFoldsIntoDigest) {
  BoundProgram aliased = parse_and_bind(kSelfArg);
  BoundProgram clean = parse_and_bind(R"(
      program aliash
      real a(64)
      real b(64)
      integer i
      distribute a(block)
      distribute b(block)
      do i = 1, 64
        a(i) = i * 1.0
      enddo
      call upd(a, b)
      end

      subroutine upd(x, y)
      real x(64)
      real y(64)
      integer i
      do i = 1, 64
        x(i) = y(i) + 1.0
      enddo
      end
)");
  IpaContext ca = run_ipa(aliased);
  IpaContext cc = run_ipa(clean);
  ASSERT_NE(pairs_of(ca.alias, "upd"), pairs_of(cc.alias, "upd"));
  OverlapEstimates ova = compute_overlap_estimates(aliased, ca.acg, ca.summaries);
  OverlapEstimates ovc = compute_overlap_estimates(clean, cc.acg, cc.summaries);
  EXPECT_NE(hash_codegen_inputs("upd", ca, ova),
            hash_codegen_inputs("upd", cc, ovc));
}

// Aliased formals widen the callee's side-effect summary: a write to one
// member is a may-write of the other.
TEST(AliasAnalysis, AliasWidensSideEffects) {
  BoundProgram bp = parse_and_bind(kSelfArg);
  IpaContext ctx = run_ipa(bp);
  ASSERT_TRUE(ctx.alias.may_alias("upd", "x", "y"));
  auto git = ctx.effects.gmod.find("upd");
  ASSERT_NE(git, ctx.effects.gmod.end());
  EXPECT_TRUE(git->second.count("x"));
  EXPECT_TRUE(git->second.count("y")) << "write to x must widen to alias y";
}

}  // namespace
}  // namespace fortd
