// Cross-cutting property tests.
//
// 1. Dependence soundness: whenever the analysis reports NO carried true
//    dependence into a read (the license for message vectorization), a
//    brute-force execution of the loop nest must agree — the read never
//    observes a value written by an earlier iteration. The analysis may
//    be conservative (report a dependence where none exists) but must
//    never be optimistic.
// 2. Owner-expression consistency: the symbolic my$p expressions emitted
//    into generated code must agree with the value-level distribution
//    functions for every processor and index.
// 3. Simulation/oracle consistency under random-ish shift stencils.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/dependence.hpp"
#include "driver/compiler.hpp"

namespace fortd {
namespace {

// ---------------------------------------------------------------------------
// 1. Dependence soundness
// ---------------------------------------------------------------------------

struct SubscriptPair {
  int wa, wc;  // write subscript: wa*i + wc
  int ra, rc;  // read subscript:  ra*i + rc
};

std::string stencil_source(const SubscriptPair& p) {
  auto term = [](int a, int c) {
    std::string s;
    if (a == 0)
      s = std::to_string(c < 1 ? 1 : c);  // keep subscripts in bounds
    else {
      s = a == 1 ? "i" : std::to_string(a) + "*i";
      if (c > 0) s += "+" + std::to_string(c);
      if (c < 0) s += "-" + std::to_string(-c);
    }
    return s;
  };
  return "      program p\n      real x(400)\n      integer i\n"
         "      do i = 10, 90\n        x(" +
         term(p.wa, p.wc) + ") = x(" + term(p.ra, p.rc) +
         ") + 1.0\n      enddo\n      end\n";
}

/// Brute force: does any iteration read an element written by an
/// *earlier* iteration (a carried true dependence)?
bool brute_force_carried_true(const SubscriptPair& p) {
  auto sub = [](int a, int c, int i) { return a == 0 ? (c < 1 ? 1 : c) : a * i + c; };
  std::map<int, int> last_write_iter;
  for (int i = 10; i <= 90; ++i) {
    int r = sub(p.ra, p.rc, i);
    auto it = last_write_iter.find(r);
    if (it != last_write_iter.end() && it->second < i) return true;
    last_write_iter[sub(p.wa, p.wc, i)] = i;
  }
  return false;
}

class DependenceSoundness : public ::testing::TestWithParam<SubscriptPair> {};

TEST_P(DependenceSoundness, NoFalseIndependence) {
  const SubscriptPair& p = GetParam();
  BoundProgram bp = parse_and_bind(stencil_source(p));
  const Procedure& proc = *bp.ast.procedures[0];
  SymbolicEnv env = SymbolicEnv::from_params(proc, bp.symtab("p"));
  DependenceAnalysis deps(proc, env);
  // Locate the rhs read of x.
  const Expr* read = nullptr;
  walk_stmts(proc.body, [&](const Stmt& s) {
    if (s.kind != StmtKind::Assign) return;
    walk_expr(*s.rhs, [&](const Expr& e) {
      if (e.kind == ExprKind::ArrayRef && e.name == "x") read = &e;
    });
  });
  ASSERT_NE(read, nullptr);
  bool analysis_says_free = deps.deepest_true_dep_level_into(read) == 0;
  bool truly_carried = brute_force_carried_true(p);
  if (analysis_says_free) {
    EXPECT_FALSE(truly_carried)
        << "analysis claims no carried true dep for write " << p.wa << "*i+"
        << p.wc << ", read " << p.ra << "*i+" << p.rc;
  }
}

std::vector<SubscriptPair> subscript_pairs() {
  std::vector<SubscriptPair> out;
  for (int wa : {0, 1, 2})
    for (int wc : {-3, -1, 0, 2, 5})
      for (int ra : {0, 1, 2})
        for (int rc : {-3, -1, 0, 2, 5}) out.push_back({wa, wc, ra, rc});
  return out;
}

INSTANTIATE_TEST_SUITE_P(AffineSweep, DependenceSoundness,
                         ::testing::ValuesIn(subscript_pairs()));

// ---------------------------------------------------------------------------
// 2. Owner-expression consistency
// ---------------------------------------------------------------------------

struct OwnerCase {
  DistKind kind;
  int block;
  int64_t n;
  int procs;
};

class OwnerExprProperty : public ::testing::TestWithParam<OwnerCase> {};

// The compiler's owner expression must agree with the owner function the
// SPMD evaluators compute for owner$ and redistributions.
TEST_P(OwnerExprProperty, SymbolicOwnerMatchesValueOwner) {
  const auto& c = GetParam();
  DimDistribution dd(DistSpec{c.kind, c.block}, 1, c.n, c.procs);
  const OwnerFn value_owner(DecompSpec{{DistSpec{c.kind, c.block}}},
                            {{1, c.n}}, c.procs);
  for (int64_t i = 1; i <= c.n; ++i) {
    ExprPtr owner = dd.owner_expr(Expr::make_int(i));
    auto v = try_eval_int(*owner, {});
    ASSERT_TRUE(v.has_value()) << "owner expr not constant-foldable at " << i;
    EXPECT_EQ(*v, value_owner.at(i)) << "index " << i;
  }
}

TEST_P(OwnerExprProperty, LocalBoundsExprsMatchLocalSets) {
  const auto& c = GetParam();
  if (c.kind == DistKind::BlockCyclic || c.kind == DistKind::None) return;
  DimDistribution dd(DistSpec{c.kind, c.block}, 1, c.n, c.procs);
  for (int p = 0; p < c.procs; ++p) {
    std::unordered_map<std::string, int64_t> env{{"my$p", p}};
    auto lb = try_eval_int(*dd.local_lb_expr(), env);
    ASSERT_TRUE(lb.has_value());
    Triplet local = dd.local_set(p);
    if (!local.empty()) {
      EXPECT_EQ(*lb, local.lb) << "p=" << p;
    }
    if (c.kind == DistKind::Block) {
      auto ub = try_eval_int(*dd.local_ub_expr(), env);
      ASSERT_TRUE(ub.has_value());
      if (!local.empty()) {
        EXPECT_EQ(*ub, local.ub) << "p=" << p;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OwnerExprProperty,
    ::testing::Values(OwnerCase{DistKind::Block, 0, 100, 4},
                      OwnerCase{DistKind::Block, 0, 97, 3},
                      OwnerCase{DistKind::Block, 0, 64, 8},
                      OwnerCase{DistKind::Cyclic, 0, 100, 4},
                      OwnerCase{DistKind::Cyclic, 0, 31, 5},
                      OwnerCase{DistKind::BlockCyclic, 4, 64, 4},
                      OwnerCase{DistKind::None, 0, 16, 4}));

// ---------------------------------------------------------------------------
// 3. Compiled shifts match the oracle across widths and machine sizes
// ---------------------------------------------------------------------------

struct ShiftCase {
  int shift;
  int procs;
};

class ShiftStencilProperty : public ::testing::TestWithParam<ShiftCase> {};

TEST_P(ShiftStencilProperty, MatchesOracle) {
  const auto& c = GetParam();
  const int n = 120;
  std::string src = "      program p\n      real x(120)\n      integer i\n"
                    "      distribute x(block)\n"
                    "      do i = 1, 120\n        x(i) = i*1.0\n      enddo\n"
                    "      do i = 1, " + std::to_string(n - c.shift) +
                    "\n        x(i) = 0.5*x(i+" + std::to_string(c.shift) +
                    ")\n      enddo\n      end\n";
  // Oracle.
  std::vector<double> x(static_cast<size_t>(n + 1));
  for (int i = 1; i <= n; ++i) x[static_cast<size_t>(i)] = i;
  for (int i = 1; i <= n - c.shift; ++i)
    x[static_cast<size_t>(i)] = 0.5 * x[static_cast<size_t>(i + c.shift)];

  CodegenOptions opt;
  opt.n_procs = c.procs;
  ExecResult run = compile_and_run(src, opt);
  DecompSpec block;
  block.dists = {DistSpec{DistKind::Block, 0}};
  auto got = run.gather("x", block);
  for (int i = 1; i <= n; ++i)
    ASSERT_DOUBLE_EQ(got[static_cast<size_t>(i - 1)], x[static_cast<size_t>(i)])
        << "shift " << c.shift << " procs " << c.procs << " elem " << i;
}

std::vector<ShiftCase> shift_cases() {
  std::vector<ShiftCase> out;
  // Includes shifts wider than the block size (e.g. 17 > 120/8), which
  // must fall back to run-time resolution and still match the oracle.
  for (int s : {1, 2, 5, 11, 17})
    for (int p : {2, 3, 4, 8}) out.push_back({s, p});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ShiftStencilProperty,
                         ::testing::ValuesIn(shift_cases()));

TEST(ShiftStencil, ShortAndEmptyBlocksAtLargeP) {
  // More processors than full blocks: edge processors own short or empty
  // blocks, shift sections clamp to the declared range, and the empty
  // send/recv pairs are skipped symmetrically. Values must still match.
  for (auto [n, procs] : std::vector<std::pair<int, int>>{
           {6, 8}, {5, 8}, {10, 7}, {3, 4}}) {
    std::string src = "      program p\n      real x(" + std::to_string(n) +
                      ")\n      integer i\n      distribute x(block)\n"
                      "      do i = 1, " + std::to_string(n) +
                      "\n        x(i) = i*1.0\n      enddo\n"
                      "      do i = 1, " + std::to_string(n - 1) +
                      "\n        x(i) = x(i+1)\n      enddo\n      end\n";
    CodegenOptions opt;
    opt.n_procs = procs;
    ExecResult run = compile_and_run(src, opt);
    DecompSpec block;
    block.dists = {DistSpec{DistKind::Block, 0}};
    auto got = run.gather("x", block);
    for (int i = 1; i <= n; ++i) {
      double want = i < n ? i + 1 : n;
      ASSERT_DOUBLE_EQ(got[static_cast<size_t>(i - 1)], want)
          << "n=" << n << " procs=" << procs << " elem " << i;
    }
  }
}

}  // namespace
}  // namespace fortd
