// Extension features and robustness: procedure inlining (§4's alternative
// transformation), the pretty-printer, and execution failure injection
// (exact deadlocks, failing processors, per-pair message order).
#include <gtest/gtest.h>

#include <cmath>

#include "codegen/spmd_printer.hpp"
#include "driver/compiler.hpp"
#include "ipa/inlining.hpp"
#include "runtime/backend.hpp"

namespace fortd {
namespace {

const char* kCallProgram = R"(
      program p
      real x(64)
      integer i
      distribute x(block)
      do i = 1, 64
        x(i) = i*1.0
      enddo
      call work(x, 3)
      call work(x, 5)
      end
      subroutine work(a, off)
      real a(64)
      integer off, i
      real t
      t = off * 1.0
      do i = 1, 64 - off
        a(i) = a(i+off) + t
      enddo
      end
)";

TEST(Inlining, InlineAllRemovesCalls) {
  BoundProgram bp = parse_and_bind(kCallProgram);
  InlineStats stats = inline_all(bp);
  EXPECT_EQ(stats.calls_inlined, 2);
  ASSERT_EQ(bp.ast.procedures.size(), 1u);
  int calls = 0;
  walk_stmts(bp.ast.procedures[0]->body, [&](const Stmt& s) {
    if (s.kind == StmtKind::Call) ++calls;
  });
  EXPECT_EQ(calls, 0);
}

TEST(Inlining, LocalsAreRenamedApart) {
  BoundProgram bp = parse_and_bind(kCallProgram);
  inline_all(bp);
  // The two inlined copies of `t` must have distinct names, declared in
  // the caller.
  const Procedure& main = *bp.ast.procedures[0];
  int t_decls = 0;
  for (const auto& d : main.decls)
    if (d.name.find("$t") != std::string::npos) ++t_decls;
  EXPECT_EQ(t_decls, 2);
}

TEST(Inlining, SemanticsPreserved) {
  // The inlined program must compute the same values as the original.
  auto run_src = [](BoundProgram bp) {
    IpaContext ctx = run_ipa(bp);
    CodegenOptions opt;
    opt.n_procs = 4;
    SpmdProgram spmd = generate_spmd(bp, ctx, opt);
    DecompSpec block;
    block.dists = {DistSpec{DistKind::Block, 0}};
    return simulate(spmd).gather("x", block);
  };
  BoundProgram original = parse_and_bind(kCallProgram);
  BoundProgram inlined = parse_and_bind(kCallProgram);
  inline_all(inlined);
  auto a = run_src(std::move(original));
  auto b = run_src(std::move(inlined));
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i)
    EXPECT_NEAR(a[i], b[i], 1e-12) << "element " << i;
}

TEST(Inlining, ExpressionActualsCopyIn) {
  BoundProgram bp = parse_and_bind(R"(
      program p
      integer n
      n = 1
      call f(n + 10)
      end
      subroutine f(m)
      integer m
      m = m + 1
      end
)");
  InlineStats stats = inline_all(bp);
  EXPECT_EQ(stats.calls_inlined, 1);
  // A copy-in temp assignment must precede the body.
  const Procedure& main = *bp.ast.procedures[0];
  bool has_temp = false;
  walk_stmts(main.body, [&](const Stmt& s) {
    if (s.kind == StmtKind::Assign && s.lhs->kind == ExprKind::VarRef &&
        s.lhs->name.rfind("inl$", 0) == 0)
      has_temp = true;
  });
  EXPECT_TRUE(has_temp);
}

TEST(Inlining, EarlyReturnRefused) {
  BoundProgram bp = parse_and_bind(R"(
      program p
      integer n
      call f(n)
      end
      subroutine f(m)
      integer m
      if (m .gt. 0) then
        return
      endif
      m = 1
      end
)");
  const Stmt* call = bp.ast.procedures[0]->body[0].get();
  EXPECT_FALSE(inline_call(bp, "p", call));
}

// ---------------------------------------------------------------------------

TEST(Printer, RoundTripThroughParser) {
  // Source-level programs must re-parse to an equivalent AST after
  // unparse (statement counts and hashes agree).
  BoundProgram bp = parse_and_bind(kCallProgram);
  std::string text = print_program(bp.ast);
  BoundProgram bp2 = parse_and_bind(text);
  ASSERT_EQ(bp2.ast.procedures.size(), bp.ast.procedures.size());
  for (size_t i = 0; i < bp.ast.procedures.size(); ++i) {
    int n1 = 0, n2 = 0;
    walk_stmts(bp.ast.procedures[i]->body, [&](const Stmt&) { ++n1; });
    walk_stmts(bp2.ast.procedures[i]->body, [&](const Stmt&) { ++n2; });
    EXPECT_EQ(n1, n2) << bp.ast.procedures[i]->name;
  }
}

TEST(Printer, PrecedenceParenthesization) {
  auto e = Expr::make_binary(
      BinOp::Mul,
      Expr::make_binary(BinOp::Add, Expr::make_var("a"), Expr::make_var("b")),
      Expr::make_var("c"));
  EXPECT_EQ(print_expr(*e), "(a + b)*c");
  auto f = Expr::make_binary(
      BinOp::Sub, Expr::make_var("a"),
      Expr::make_binary(BinOp::Sub, Expr::make_var("b"), Expr::make_var("c")));
  EXPECT_EQ(print_expr(*f), "a - (b - c)");
}

TEST(Printer, SpmdStatements) {
  StmtPtr send = Stmt::make_send(
      "x", [] {
        std::vector<SectionExpr> sec;
        SectionExpr t;
        t.lb = Expr::make_int(1);
        t.ub = Expr::make_int(5);
        sec.push_back(std::move(t));
        return sec;
      }(),
      Expr::make_binary(BinOp::Sub, Expr::make_var("my$p"), Expr::make_int(1)));
  EXPECT_EQ(print_stmt(*send), "send x(1:5) to my$p - 1\n");
}

// ---------------------------------------------------------------------------
// Hand-built SPMD programs: P0 and P1 each run their own branch, so a test
// stages exactly the sends and receives it needs. Every statement that
// communicates carries a position, as compiled code does.

std::vector<SectionExpr> section(int lo, int hi) {
  std::vector<SectionExpr> sec;
  SectionExpr t;
  t.lb = Expr::make_int(lo);
  t.ub = Expr::make_int(hi);
  sec.push_back(std::move(t));
  return sec;
}

StmtPtr send_at(const char* array, int lo, int hi, int to, int line) {
  StmtPtr s = Stmt::make_send(array, section(lo, hi), Expr::make_int(to));
  s->loc = {line, 7};
  return s;
}

StmtPtr recv_at(const char* array, int lo, int hi, int from, int line) {
  StmtPtr s = Stmt::make_recv(array, section(lo, hi), Expr::make_int(from));
  s->loc = {line, 7};
  return s;
}

template <typename... S>
std::vector<StmtPtr> stmts(S... s) {
  std::vector<StmtPtr> out;
  (out.push_back(std::move(s)), ...);
  return out;
}

/// Two processors with real x(10), y(10); each sets x(i) = i + 10*my$p,
/// then P0 runs `p0` and P1 runs `p1`.
SpmdProgram two_procs(std::vector<StmtPtr> p0, std::vector<StmtPtr> p1) {
  SpmdProgram spmd;
  spmd.options.n_procs = 2;
  auto proc = std::make_unique<Procedure>();
  proc->name = "p";
  proc->is_program = true;
  for (const char* name : {"x", "y"}) {
    VarDecl d;
    d.name = name;
    d.dims.push_back({nullptr, Expr::make_int(10)});
    proc->decls.push_back(std::move(d));
  }
  std::vector<ExprPtr> sub;
  sub.push_back(Expr::make_var("i"));
  proc->body.push_back(Stmt::make_do(
      "i", Expr::make_int(1), Expr::make_int(10), nullptr,
      stmts(Stmt::make_assign(
          Expr::make_array_ref("x", std::move(sub)),
          Expr::make_binary(BinOp::Add, Expr::make_var("i"),
                            Expr::make_binary(BinOp::Mul, Expr::make_int(10),
                                              Expr::make_var("my$p")))))));
  proc->body.push_back(Stmt::make_if(
      Expr::make_binary(BinOp::Eq, Expr::make_var("my$p"), Expr::make_int(0)),
      std::move(p0), std::move(p1)));
  spmd.ast.procedures.push_back(std::move(proc));
  return spmd;
}

const BackendKind kBothKinds[] = {BackendKind::Simulator,
                                  BackendKind::Threaded};

/// What executing `spmd` on `kind` throws ("" when it completes).
std::string error_of(const SpmdProgram& spmd, BackendKind kind) {
  try {
    make_backend(kind)->execute(spmd);
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

std::vector<double> first5(const ExecResult& run, int p, const char* array) {
  const auto& data =
      run.contexts[static_cast<size_t>(p)]->main_array(array)->data;
  return {data.begin(), data.begin() + 5};
}

TEST(FailureInjection, MismatchedSectionSizesAreDetected) {
  // p0 sends 3 elements to p1; p1 expects 5: execution fails loudly
  // instead of corrupting data.
  const SpmdProgram spmd = two_procs(stmts(send_at("x", 1, 3, 1, 9)),
                                     stmts(recv_at("x", 1, 5, 0, 11)));
  EXPECT_THROW(simulate(spmd), std::runtime_error);
  for (BackendKind kind : kBothKinds)
    EXPECT_NE(error_of(spmd, kind).find("message size mismatch"),
              std::string::npos)
        << backend_kind_name(kind);
}

TEST(FailureInjection, MissingSenderDeadlocks) {
  // P1 waits for a message P0 never sends. The deadlock is an exact
  // state, reported at once, naming the blocked receive and its statement.
  const SpmdProgram spmd =
      two_procs({}, stmts(recv_at("x", 1, 1, 0, 12)));
  const std::string want = "P1 recv from P0 of 'x' at 12:7";
  try {
    simulate(spmd);
    ADD_FAILURE() << "simulate() returned";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(want), std::string::npos) << e.what();
  }
  for (BackendKind kind : kBothKinds) {
    const std::string error = error_of(spmd, kind);
    EXPECT_NE(error.find("deadlock"), std::string::npos) << error;
    EXPECT_NE(error.find(want), std::string::npos) << error;
  }
}

TEST(FailureInjection, PeerFailureIsReportedNotMaskedAsDeadlock) {
  // P1 divides by zero before its send, while P0 waits for that message:
  // the failure is reported, and P0's wait is unwound, not blamed.
  const SpmdProgram spmd = two_procs(
      stmts(recv_at("x", 1, 3, 1, 20)),
      stmts(Stmt::make_assign(Expr::make_var("j"), Expr::make_int(0)),
            Stmt::make_assign(Expr::make_var("i"),
                              Expr::make_binary(BinOp::Div, Expr::make_int(7),
                                                Expr::make_var("j"))),
            send_at("x", 1, 3, 0, 24)));
  for (BackendKind kind : kBothKinds)
    EXPECT_EQ(error_of(spmd, kind), "integer division by zero")
        << backend_kind_name(kind);
}

TEST(FailureInjection, HeadToHeadSendsDeadlockOnlyUnderRendezvous) {
  // Each processor sends x(1:3) to the other, then receives y(1:3) from
  // it. Buffered sends complete; rendezvous sends wait for each other.
  const SpmdProgram spmd =
      two_procs(stmts(send_at("x", 1, 3, 1, 30), recv_at("y", 1, 3, 1, 31)),
                stmts(send_at("x", 1, 3, 0, 40), recv_at("y", 1, 3, 0, 41)));
  const ExecResult sim = make_backend(BackendKind::Simulator)->execute(spmd);
  EXPECT_EQ(sim.messages, 2);
  EXPECT_EQ(first5(sim, 0, "y"), (std::vector<double>{11, 12, 13, 0, 0}));
  EXPECT_EQ(first5(sim, 1, "y"), (std::vector<double>{1, 2, 3, 0, 0}));

  const std::string error = error_of(spmd, BackendKind::Threaded);
  EXPECT_NE(error.find("P0 send to P1 of 'x' at 30:7"), std::string::npos)
      << error;
  EXPECT_NE(error.find("P1 send to P0 of 'x' at 40:7"), std::string::npos)
      << error;
}

TEST(RuntimeBackend, MessagesBetweenOnePairArriveInSendOrder) {
  // P0 sends x(1:2) and then x(3:5); P1 receives them in that order into
  // y(4:5) and y(1:3). Swapped messages would mismatch in size.
  const SpmdProgram spmd =
      two_procs(stmts(send_at("x", 1, 2, 1, 50), send_at("x", 3, 5, 1, 51)),
                stmts(recv_at("y", 4, 5, 0, 60), recv_at("y", 1, 3, 0, 61)));
  for (BackendKind kind : kBothKinds) {
    SCOPED_TRACE(backend_kind_name(kind));
    const ExecResult run = make_backend(kind)->execute(spmd);
    EXPECT_EQ(run.messages, 2);
    EXPECT_EQ(run.bytes, 5 * 8);
    EXPECT_EQ(first5(run, 1, "y"), (std::vector<double>{3, 4, 5, 1, 2}));
  }
}

TEST(RuntimeBackend, RendezvousSendWaitsForItsReceiver) {
  // P0 sends x(1:3) twice; P1 receives once. A buffered second send
  // completes; a rendezvous one waits for a receiver that has finished.
  const SpmdProgram spmd =
      two_procs(stmts(send_at("x", 1, 3, 1, 70), send_at("x", 1, 3, 1, 71)),
                stmts(recv_at("y", 1, 3, 0, 80)));
  const ExecResult sim = make_backend(BackendKind::Simulator)->execute(spmd);
  EXPECT_EQ(sim.messages, 2);
  EXPECT_EQ(first5(sim, 1, "y"), (std::vector<double>{1, 2, 3, 0, 0}));

  EXPECT_EQ(error_of(spmd, BackendKind::Threaded),
            "deadlock: no processor can proceed: P0 send to P1 of 'x' at 71:7");
}

TEST(FailureInjection, ReceiverFailureUnwindsABlockedSend) {
  // P0 sends x(1:3) to P1, which divides by zero before its receive. Under
  // rendezvous P0 is blocked in the send when P1 fails; the failure is
  // reported on both kinds.
  const SpmdProgram spmd = two_procs(
      stmts(send_at("x", 1, 3, 1, 90)),
      stmts(Stmt::make_assign(Expr::make_var("j"), Expr::make_int(0)),
            Stmt::make_assign(Expr::make_var("i"),
                              Expr::make_binary(BinOp::Div, Expr::make_int(7),
                                                Expr::make_var("j"))),
            recv_at("y", 1, 3, 0, 94)));
  for (BackendKind kind : kBothKinds)
    EXPECT_EQ(error_of(spmd, kind), "integer division by zero")
        << backend_kind_name(kind);
}

TEST(FailureInjection, UnknownIntrinsicThrows) {
  EXPECT_THROW(compile_and_run(R"(
      program p
      real x(4)
      x(1) = frobnicate(2.0)
      end
)"),
               std::runtime_error);
}

TEST(FailureInjection, DivisionByZeroThrows) {
  EXPECT_THROW(compile_and_run(R"(
      program p
      integer a, b
      b = 0
      a = 7 / b
      end
)"),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Run-time checks: each error is raised when its statement runs, with the
// same text under the serial reference and under both backends.

/// What the serial reference and then each backend throw on `spmd` ("" for
/// a run that completes).
std::vector<std::string> errors_everywhere(const SpmdProgram& spmd) {
  std::vector<std::string> out;
  try {
    run_serial_reference(spmd.ast);
    out.push_back("");
  } catch (const std::exception& e) {
    out.push_back(e.what());
  }
  for (BackendKind kind : kBothKinds) out.push_back(error_of(spmd, kind));
  return out;
}

/// A hand-built two-processor program `p` with real x(8) and integer i
/// that runs `body`.
SpmdProgram program_running(std::vector<StmtPtr> body) {
  SpmdProgram spmd;
  spmd.options.n_procs = 2;
  auto proc = std::make_unique<Procedure>();
  proc->name = "p";
  proc->is_program = true;
  VarDecl x;
  x.name = "x";
  x.dims.push_back({nullptr, Expr::make_int(8)});
  proc->decls.push_back(std::move(x));
  VarDecl i;
  i.name = "i";
  i.type = ElemType::Integer;
  proc->decls.push_back(std::move(i));
  proc->body = std::move(body);
  spmd.ast.procedures.push_back(std::move(proc));
  return spmd;
}

template <typename... E>
ExprPtr x_at(E... subscripts) {
  std::vector<ExprPtr> subs;
  (subs.push_back(Expr::make_int(subscripts)), ...);
  return Expr::make_array_ref("x", std::move(subs));
}

std::vector<std::string> everywhere(const std::string& error) {
  return std::vector<std::string>(3, error);
}

TEST(FailureInjection, OutOfBoundsReadNamesArrayDimensionAndBounds) {
  const SpmdProgram spmd = program_running(
      stmts(Stmt::make_assign(Expr::make_var("s"), x_at(0))));
  EXPECT_EQ(errors_everywhere(spmd),
            everywhere("subscript out of bounds: x dim 1 index 0 not in [1,8]"));
}

TEST(FailureInjection, OutOfBoundsWriteNamesArrayDimensionAndBounds) {
  const SpmdProgram spmd =
      program_running(stmts(Stmt::make_assign(x_at(9), Expr::make_real(1.0))));
  EXPECT_EQ(errors_everywhere(spmd),
            everywhere("subscript out of bounds: x dim 1 index 9 not in [1,8]"));
}

TEST(FailureInjection, OutOfBoundsSendSectionIsCaughtWhilePacking) {
  // P0 sends x(0:3), one element below x's lower bound, to P1. The serial
  // reference runs no communication at all.
  const SpmdProgram spmd = two_procs(stmts(send_at("x", 0, 3, 1, 100)),
                                     stmts(recv_at("x", 1, 4, 0, 101)));
  EXPECT_EQ(errors_everywhere(spmd),
            (std::vector<std::string>{
                "serial reference executed a send — the input is not a "
                "pre-SPMD program",
                "subscript out of bounds: x dim 1 index 0 not in [1,10]",
                "subscript out of bounds: x dim 1 index 0 not in [1,10]"}));
}

TEST(FailureInjection, RankMismatchNamesTheArray) {
  const SpmdProgram spmd =
      program_running(stmts(Stmt::make_assign(x_at(1, 1), Expr::make_int(0))));
  EXPECT_EQ(errors_everywhere(spmd),
            everywhere("rank mismatch indexing array 'x'"));
}

TEST(FailureInjection, ZeroDoStepThrows) {
  const SpmdProgram spmd = program_running(stmts(Stmt::make_do(
      "i", Expr::make_int(1), Expr::make_int(8), Expr::make_int(0),
      stmts(Stmt::make_assign(Expr::make_var("s"), Expr::make_var("i"))))));
  EXPECT_EQ(errors_everywhere(spmd), everywhere("DO step is zero"));
}

TEST(FailureInjection, UnknownIntrinsicIsNamed) {
  std::vector<ExprPtr> args;
  args.push_back(Expr::make_real(2.0));
  const SpmdProgram spmd = program_running(stmts(Stmt::make_assign(
      x_at(1), Expr::make_call("frobnicate", std::move(args)))));
  EXPECT_EQ(errors_everywhere(spmd),
            everywhere("unknown intrinsic function 'frobnicate'"));
}

TEST(FailureInjection, IntrinsicWithTooFewArgumentsIsAnErrorNotACrash) {
  // The parser accepts `sqrt()`; running it must not read past the call.
  const SpmdProgram spmd = program_running(
      stmts(Stmt::make_assign(x_at(1), Expr::make_call("sqrt", {}))));
  EXPECT_EQ(errors_everywhere(spmd),
            everywhere("too few arguments to intrinsic function 'sqrt'"));
}

TEST(FailureInjection, ModByZeroThrowsLikeDivision) {
  for (const char* fn : {"mod", "modp"}) {
    std::vector<ExprPtr> args;
    args.push_back(Expr::make_int(7));
    args.push_back(Expr::make_var("i"));  // integer, never assigned: 0
    const SpmdProgram spmd = program_running(stmts(Stmt::make_assign(
        Expr::make_var("s"), Expr::make_call(fn, std::move(args)))));
    EXPECT_EQ(errors_everywhere(spmd), everywhere("integer division by zero"))
        << fn;
  }
}

TEST(FailureInjection, CallToUnknownProcedureIsNamed) {
  const SpmdProgram spmd =
      program_running(stmts(Stmt::make_call("nosuch", {})));
  EXPECT_EQ(errors_everywhere(spmd),
            everywhere("call to unknown procedure 'nosuch'"));
}

TEST(FailureInjection, ReferenceToUnknownArrayIsNamed) {
  std::vector<ExprPtr> subs;
  subs.push_back(Expr::make_int(1));
  const SpmdProgram spmd = program_running(stmts(Stmt::make_assign(
      Expr::make_var("s"), Expr::make_array_ref("z", std::move(subs)))));
  EXPECT_EQ(errors_everywhere(spmd),
            everywhere("reference to unknown array 'z'"));
}

TEST(FailureInjection, BadReferencesInABranchThatNeverRunsAreHarmless) {
  // Every statement below would fail if it ran; none does, since my$p is
  // never negative.
  std::vector<ExprPtr> args;
  args.push_back(Expr::make_real(2.0));
  std::vector<ExprPtr> subs;
  subs.push_back(Expr::make_int(1));
  std::vector<ExprPtr> owner_subs;
  owner_subs.push_back(Expr::make_int(1));
  const SpmdProgram spmd = program_running(stmts(
      Stmt::make_assign(x_at(1), Expr::make_real(3.0)),
      Stmt::make_if(
          Expr::make_binary(BinOp::Lt, Expr::make_var("my$p"),
                            Expr::make_int(0)),
          stmts(Stmt::make_assign(x_at(0), Expr::make_real(1.0)),
                Stmt::make_assign(x_at(1, 1), Expr::make_real(1.0)),
                Stmt::make_assign(
                    x_at(2), Expr::make_call("frobnicate", std::move(args))),
                Stmt::make_assign(Expr::make_var("s"),
                                  Expr::make_array_ref("z", std::move(subs))),
                Stmt::make_assign(
                    Expr::make_var("s"),
                    Expr::make_call("owner$z", std::move(owner_subs))),
                Stmt::make_call("nosuch", {}),
                Stmt::make_do("i", Expr::make_int(1), Expr::make_int(8),
                              Expr::make_int(0), {})))));
  EXPECT_EQ(errors_everywhere(spmd), everywhere(""));
  const ExecResult run = make_backend(BackendKind::Threaded)->execute(spmd);
  EXPECT_EQ(run.gather("x")[0], 3.0);
}

// ---------------------------------------------------------------------------
// Reduction recognition (collective communication)
// ---------------------------------------------------------------------------

TEST(Reductions, SumOverDistributedDimension) {
  const char* src = R"(
      program p
      real x(100)
      real total
      integer i
      distribute x(block)
      do i = 1, 100
        x(i) = i*1.0
      enddo
      total = 5.0
      do i = 1, 100
        total = total + x(i)
      enddo
      end
)";
  CodegenOptions opt;
  opt.n_procs = 4;
  Compiler compiler(opt);
  CompileResult r = compiler.compile_source(src);
  // The generated code must contain an AllReduce and a reduced loop, and
  // no run-time resolution.
  int allreduces = 0;
  walk_stmts(r.spmd.ast.procedures[0]->body, [&](const Stmt& s) {
    if (s.kind == StmtKind::AllReduce) ++allreduces;
  });
  EXPECT_EQ(allreduces, 1);
  EXPECT_EQ(r.spmd.stats.runtime_resolved_stmts, 0);
  ExecResult run = simulate(r.spmd);
  // total = 5 + sum(1..100) = 5055 on every processor.
  EXPECT_DOUBLE_EQ(run.gather_scalar("total"), 5055.0);
}

TEST(Reductions, CyclicDistributionAndVaryingProcs) {
  for (int procs : {1, 2, 4, 8}) {
    std::string src = R"(
      program p
      real x(60)
      real total
      integer i
      distribute x(cyclic)
      do i = 1, 60
        x(i) = 2.0*i
      enddo
      total = 0.0
      do i = 1, 60
        total = total + x(i)
      enddo
      end
)";
    CodegenOptions opt;
    opt.n_procs = procs;
    ExecResult run = compile_and_run(src, opt);
    EXPECT_DOUBLE_EQ(run.gather_scalar("total"), 60.0 * 61.0)
        << "procs " << procs;
  }
}

TEST(Reductions, MixedLoopFallsBackSafely) {
  // The loop carries both a reduction and an unrelated scalar update:
  // the loop cannot be reduced, and results must still be correct.
  const char* src = R"(
      program p
      real x(40)
      real total, other
      integer i
      distribute x(block)
      do i = 1, 40
        x(i) = 1.0
      enddo
      total = 0.0
      other = 0.0
      do i = 1, 40
        total = total + x(i)
        other = other + 1.0
      enddo
      end
)";
  CodegenOptions opt;
  opt.n_procs = 4;
  ExecResult run = compile_and_run(src, opt);
  EXPECT_DOUBLE_EQ(run.gather_scalar("total"), 40.0);
  EXPECT_DOUBLE_EQ(run.gather_scalar("other"), 40.0);
}

TEST(Reductions, NonReductionScalarOverDistributedDimFallsBack) {
  // `last = x(i)` is not an accumulation: run-time resolution must keep
  // it correct (the final value is x(40) on every processor).
  const char* src = R"(
      program p
      real x(40)
      real last
      integer i
      distribute x(block)
      do i = 1, 40
        x(i) = i*3.0
      enddo
      do i = 1, 40
        last = x(i)
      enddo
      end
)";
  CodegenOptions opt;
  opt.n_procs = 4;
  Compiler compiler(opt);
  CompileResult r = compiler.compile_source(src);
  EXPECT_GE(r.spmd.stats.runtime_resolved_stmts, 1);
  ExecResult run = simulate(r.spmd);
  EXPECT_DOUBLE_EQ(run.gather_scalar("last"), 120.0);
}

}  // namespace
}  // namespace fortd
