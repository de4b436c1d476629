// Interprocedural lint and SPMD verification tests: the negative-fixture
// corpus under tests/lint/ (each file triggers exactly one checker, by
// id), deterministic diagnostic ordering across worker counts, and the
// SpmdVerifier over the example programs and mutated SPMD output.
#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <optional>
#include <sstream>

#include "analysis/lint/spmd_verifier.hpp"
#include "example_programs.hpp"
#include "driver/compiler.hpp"
#include "support/thread_pool.hpp"

#ifndef FORTD_LINT_FIXTURE_DIR
#define FORTD_LINT_FIXTURE_DIR "tests/lint"
#endif

namespace fortd {
namespace {

using examples::Example;
using examples::kExamples;
using examples::kJacobi;
using examples::kRedistribution;

std::string load_fixture(const std::string& name) {
  std::string path = std::string(FORTD_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

CompileResult compile_analyzed(const std::string& source, int jobs = 1,
                               int n_procs = 4) {
  CodegenOptions options;
  options.n_procs = n_procs;
  options.jobs = jobs;
  LintOptions lint;
  lint.analyze = true;
  lint.verify_spmd = true;
  Compiler compiler(options, {}, lint);
  return compiler.compile_source(source);
}

const char* kAllCheckerIds[] = {
    "fortd-call-mismatch",
    "fortd-overlap-bounds",
    "fortd-loop-sequential",
    "fortd-dead-decomp",
    "fortd-alias-hazard",
};

/// The fixture must report warnings only under `expected` and stay silent
/// under every other checker id.
void expect_exactly(const LintReport& report, const std::string& expected) {
  for (const char* id : kAllCheckerIds) {
    if (id == expected) {
      EXPECT_GE(report.count(id), 1) << "expected findings under " << id;
    } else {
      EXPECT_EQ(report.count(id), 0) << "unexpected findings under " << id
                                     << ":\n" << report.text();
    }
  }
}

// ---------------------------------------------------------------------------
// Negative fixtures: one checker each
// ---------------------------------------------------------------------------

TEST(LintFixtures, CallMismatch) {
  CompileResult r = compile_analyzed(load_fixture("call_mismatch.fd"));
  expect_exactly(r.lint, "fortd-call-mismatch");
}

TEST(LintFixtures, OverlapBounds) {
  CompileResult r = compile_analyzed(load_fixture("overlap_bounds.fd"));
  expect_exactly(r.lint, "fortd-overlap-bounds");
}

TEST(LintFixtures, LoopSequential) {
  CompileResult r = compile_analyzed(load_fixture("loop_sequential.fd"));
  expect_exactly(r.lint, "fortd-loop-sequential");
}

TEST(LintFixtures, DeadDecomp) {
  CompileResult r = compile_analyzed(load_fixture("dead_decomp.fd"));
  expect_exactly(r.lint, "fortd-dead-decomp");
}

TEST(LintFixtures, AliasHazard) {
  CompileResult r = compile_analyzed(load_fixture("alias_hazard.fd"));
  expect_exactly(r.lint, "fortd-alias-hazard");
  // The note carries the inducing call site as provenance.
  bool note_with_line = false;
  for (const Diagnostic& d : r.lint.diags)
    if (d.id == "fortd-alias-hazard" && d.level == DiagLevel::Note &&
        d.loc.line > 0)
      note_with_line = true;
  EXPECT_TRUE(note_with_line) << r.lint.text();
}

TEST(LintFixtures, CleanProgramIsSilent) {
  CompileResult r = compile_analyzed(load_fixture("clean.fd"));
  EXPECT_TRUE(r.lint.empty()) << r.lint.text();
  EXPECT_TRUE(r.verify.clean()) << r.verify.text();
}

TEST(LintFixtures, StatsCarryLintCounts) {
  CompileResult r = compile_analyzed(load_fixture("dead_decomp.fd"));
  EXPECT_EQ(r.stats.lint_warnings, r.lint.warnings);
  EXPECT_EQ(r.stats.lint_notes, r.lint.notes);
  EXPECT_GE(r.lint.warnings, 1);
  EXPECT_EQ(r.stats.verify_unmatched, r.verify.unmatched);
}

TEST(LintFixtures, DisabledCheckerIsSkipped) {
  CodegenOptions options;
  LintOptions lint;
  lint.analyze = true;
  lint.disabled.insert("fortd-dead-decomp");
  Compiler compiler(options, {}, lint);
  CompileResult r = compiler.compile_source(load_fixture("dead_decomp.fd"));
  EXPECT_EQ(r.lint.count("fortd-dead-decomp"), 0) << r.lint.text();
}

TEST(LintFixtures, JsonCarriesIdAndLocation) {
  CompileResult r = compile_analyzed(load_fixture("dead_decomp.fd"));
  const std::string json = r.lint.json();
  EXPECT_NE(json.find("\"id\": \"fortd-dead-decomp\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"line\": "), std::string::npos);
}

// ---------------------------------------------------------------------------
// Deterministic ordering across worker counts
// ---------------------------------------------------------------------------

// Several procedures, several findings, so a racy schedule would have
// many chances to reorder the report.
const char* kManyFindings = R"(
      program manyf
      real a(64)
      real u(64)
      integer i, n
      distribute a(block)
      distribute a(cyclic)
      distribute u(block)
      do i = 1, 64
        a(5) = a(5) + 1.0
      enddo
      do i = 1, 44
        a(i) = u(i+20)
      enddo
      call s1(a)
      call s2(u)
      end

      subroutine s1(x)
      real x(64)
      integer i
      do i = 1, 64
        x(7) = x(7) + 2.0
      enddo
      end

      subroutine s2(x)
      real x(64)
      integer i
      do i = 1, 64
        x(9) = x(9) + 3.0
      enddo
      end
)";

TEST(LintDeterminism, SerialAndParallelReportsAreByteIdentical) {
  CompileResult serial = compile_analyzed(kManyFindings, /*jobs=*/1);
  CompileResult parallel = compile_analyzed(kManyFindings, /*jobs=*/4);
  ASSERT_FALSE(serial.lint.empty());
  EXPECT_EQ(serial.lint.text(), parallel.lint.text());
  EXPECT_EQ(serial.lint.json(), parallel.lint.json());
  EXPECT_EQ(serial.verify.text(), parallel.verify.text());
  EXPECT_EQ(serial.verify.summary(), parallel.verify.summary());
}

// The new-checker fixtures at jobs 1, 2 and 4: the findings must be
// byte-identical, because the alias pass, the lint cells, and the
// verifier all order their output deterministically.
TEST(LintDeterminism, NewFixturesAreScheduleInvariant) {
  for (const char* fixture : {"alias_hazard.fd", "spmd_deadlock.fd"}) {
    const std::string src = load_fixture(fixture);
    auto compile_with = [&](int jobs) {
      CodegenOptions options;
      options.n_procs = 2;
      options.jobs = jobs;
      LintOptions lint;
      lint.analyze = true;
      lint.verify_spmd = true;
      Compiler compiler(options, {}, lint);
      CompileResult r = compiler.compile_source(src);
      // The folded report (satellite of -lint-json): the uniform
      // serialization of lint + verifier findings.
      return compiler.last_lint_report().json() + "|" + r.lint.text() + "|" +
             r.verify.text();
    };
    const std::string base = compile_with(1);
    for (int jobs : {2, 4})
      EXPECT_EQ(base, compile_with(jobs)) << fixture << " jobs=" << jobs;
  }
}

// Verifier findings fold into last_lint_report() with their ids, so the
// -lint-json stream is uniform across lint and verify diagnostics.
TEST(LintDeterminism, VerifierFindingsSerializeUniformly) {
  CodegenOptions options;
  options.n_procs = 4;
  LintOptions lint;
  lint.analyze = true;
  lint.verify_spmd = true;
  Compiler compiler(options, {}, lint);
  CompileResult r =
      compiler.compile_source(load_fixture("alias_hazard.fd"));
  const LintReport& folded = compiler.last_lint_report();
  EXPECT_EQ(folded.diags.size(),
            r.lint.diags.size() + r.verify.diags.size());
  EXPECT_NE(folded.json().find("\"id\": \"fortd-alias-hazard\""),
            std::string::npos)
      << folded.json();
  EXPECT_EQ(folded.warnings + folded.notes,
            static_cast<int>(folded.diags.size()));
}

// ---------------------------------------------------------------------------
// SpmdVerifier: clean on the example programs
// ---------------------------------------------------------------------------

TEST(SpmdVerifier, CleanOnEveryExample) {
  for (const Example& ex : kExamples) {
    CompileResult r = compile_analyzed(ex.source);
    EXPECT_TRUE(r.verify.clean())
        << ex.name << " verifier findings:\n" << r.verify.text();
  }
}

TEST(SpmdVerifier, CleanOnEveryExampleUnderEveryStrategy) {
  const Strategy strategies[] = {Strategy::Interprocedural,
                                 Strategy::Intraprocedural,
                                 Strategy::RuntimeResolution};
  for (const Example& ex : kExamples) {
    for (Strategy strat : strategies) {
      CodegenOptions options;
      options.n_procs = 4;
      options.strategy = strat;
      LintOptions lint;
      lint.verify_spmd = true;
      Compiler compiler(options, {}, lint);
      CompileResult r = compiler.compile_source(ex.source);
      EXPECT_TRUE(r.verify.clean())
          << ex.name << " (strategy " << static_cast<int>(strat)
          << ") verifier findings:\n" << r.verify.text();
    }
  }
}

// The deadlock simulation is order-sensitive, so the generated schedule of
// every example must drain at every processor count under every strategy —
// a false positive here would be a send/recv emission-order bug.
TEST(SpmdVerifier, CleanAtOtherProcessorCounts) {
  const Strategy strategies[] = {Strategy::Interprocedural,
                                 Strategy::Intraprocedural,
                                 Strategy::RuntimeResolution};
  for (const Example& ex : kExamples) {
    for (Strategy strat : strategies) {
      for (int p : {2, 8}) {
        CodegenOptions options;
        options.n_procs = p;
        options.strategy = strat;
        LintOptions lint;
        lint.verify_spmd = true;
        Compiler compiler(options, {}, lint);
        CompileResult r = compiler.compile_source(ex.source);
        EXPECT_TRUE(r.verify.clean())
            << ex.name << " (strategy " << static_cast<int>(strat)
            << ") at P=" << p << ":\n" << r.verify.text();
        EXPECT_EQ(r.verify.deadlocks, 0);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// SpmdVerifier: mutated programs must be flagged
// ---------------------------------------------------------------------------

/// Remove the first statement of `kind` anywhere in the program;
/// returns true when one was removed.
bool remove_first(SpmdProgram& spmd, StmtKind kind) {
  for (auto& proc : spmd.ast.procedures) {
    std::function<bool(std::vector<StmtPtr>&)> prune =
        [&](std::vector<StmtPtr>& stmts) -> bool {
      for (size_t i = 0; i < stmts.size(); ++i) {
        if (stmts[i]->kind == kind) {
          stmts.erase(stmts.begin() + static_cast<long>(i));
          return true;
        }
        if (prune(stmts[i]->then_body) || prune(stmts[i]->else_body) ||
            prune(stmts[i]->body))
          return true;
      }
      return false;
    };
    if (prune(proc->body)) return true;
  }
  return false;
}

TEST(SpmdVerifier, RemovedRecvLeavesUnmatchedSend) {
  CompileResult r = compile_analyzed(kJacobi);
  ASSERT_TRUE(r.verify.clean());
  ASSERT_TRUE(remove_first(r.spmd, StmtKind::Recv));
  SpmdVerifyReport v = verify_spmd(r.spmd);
  EXPECT_GT(v.unmatched, 0);
  int unmatched_sends = 0;
  for (const Diagnostic& d : v.diags)
    if (d.id == "fortd-spmd-unmatched-send") ++unmatched_sends;
  EXPECT_GE(unmatched_sends, 1) << v.text();
  EXPECT_FALSE(v.clean());
}

TEST(SpmdVerifier, RemovedSendLeavesUnmatchedRecv) {
  CompileResult r = compile_analyzed(kJacobi);
  ASSERT_TRUE(remove_first(r.spmd, StmtKind::Send));
  SpmdVerifyReport v = verify_spmd(r.spmd);
  EXPECT_GT(v.unmatched, 0);
  int unmatched_recvs = 0;
  for (const Diagnostic& d : v.diags)
    if (d.id == "fortd-spmd-unmatched-recv") ++unmatched_recvs;
  EXPECT_GE(unmatched_recvs, 1) << v.text();
}

TEST(SpmdVerifier, GuardedCollectiveIsFlagged) {
  CompileResult r = compile_analyzed(kRedistribution);
  // Wrap the first collective in a processor-dependent guard.
  bool wrapped = false;
  for (auto& proc : r.spmd.ast.procedures) {
    for (auto& sp : proc->body) {
      if (sp->kind == StmtKind::Remap || sp->kind == StmtKind::MarkDist ||
          sp->kind == StmtKind::Broadcast) {
        auto cond = Expr::make_binary(BinOp::Gt, Expr::make_var("my$p"),
                                      Expr::make_int(0));
        std::vector<StmtPtr> then_body;
        then_body.push_back(std::move(sp));
        sp = Stmt::make_if(std::move(cond), std::move(then_body));
        wrapped = true;
        break;
      }
    }
    if (wrapped) break;
  }
  ASSERT_TRUE(wrapped) << "no collective found to wrap";
  SpmdVerifyReport v = verify_spmd(r.spmd);
  int guarded = 0;
  for (const Diagnostic& d : v.diags)
    if (d.id == "fortd-spmd-guarded-collective") ++guarded;
  EXPECT_GE(guarded, 1) << v.text();
}

/// Reorder the message statements of every top-level statement list so
/// all If-wrapped sends precede all If-wrapped recvs, keeping relative
/// order within each kind and leaving every other slot untouched. The
/// send/recv *multisets* are unchanged — only the schedule moves.
bool partition_sends_first(std::vector<StmtPtr>& stmts) {
  auto msg_kind = [](const Stmt& s) -> std::optional<StmtKind> {
    if (s.kind == StmtKind::Send || s.kind == StmtKind::Recv) return s.kind;
    if (s.kind == StmtKind::If && s.then_body.size() == 1 &&
        s.else_body.empty() &&
        (s.then_body[0]->kind == StmtKind::Send ||
         s.then_body[0]->kind == StmtKind::Recv))
      return s.then_body[0]->kind;
    return std::nullopt;
  };
  std::vector<size_t> slots;
  for (size_t i = 0; i < stmts.size(); ++i)
    if (msg_kind(*stmts[i])) slots.push_back(i);
  if (slots.size() < 2) return false;
  std::vector<StmtPtr> sends, recvs;
  for (size_t i : slots) {
    if (*msg_kind(*stmts[i]) == StmtKind::Send)
      sends.push_back(std::move(stmts[i]));
    else
      recvs.push_back(std::move(stmts[i]));
  }
  if (sends.empty() || recvs.empty()) return false;
  size_t next = 0;
  for (StmtPtr& s : sends) stmts[slots[next++]] = std::move(s);
  for (StmtPtr& r : recvs) stmts[slots[next++]] = std::move(r);
  return true;
}

// Two opposite shifts on one array generate [send, recv, send, recv] per
// processor; reordering to sends-first makes both processors at P=2 front
// a synchronous send to each other — matched multisets, no execution
// order. The multiset pass accepts it; only the simulation catches it.
TEST(SpmdVerifier, CyclicBlockingSendsAreDeadlock) {
  CompileResult r = compile_analyzed(load_fixture("spmd_deadlock.fd"),
                                     /*jobs=*/1, /*n_procs=*/2);
  ASSERT_TRUE(r.verify.clean()) << r.verify.text();
  ASSERT_EQ(r.verify.deadlocks, 0);
  bool mutated = false;
  for (auto& proc : r.spmd.ast.procedures)
    mutated |= partition_sends_first(proc->body);
  ASSERT_TRUE(mutated) << "no send/recv run found to reorder";
  SpmdVerifyReport v = verify_spmd(r.spmd);
  EXPECT_EQ(v.unmatched, 0) << v.text();  // multisets still match
  EXPECT_GE(v.deadlocks, 1);
  int deadlock_diags = 0;
  for (const Diagnostic& d : v.diags) {
    if (d.id != "fortd-spmd-deadlock") continue;
    ++deadlock_diags;
    EXPECT_GT(d.loc.line, 0) << "deadlock diagnostic lost its source line: "
                             << d.str();
  }
  EXPECT_GE(deadlock_diags, 1) << v.text();
  EXPECT_FALSE(v.clean());
}

// The verifier's simulation must be a pure function of the program: the
// parallel walk and the serial walk agree, and the report is identical at
// every processor count that deadlocks.
TEST(SpmdVerifier, DeadlockReportIsPoolInvariant) {
  CompileResult r = compile_analyzed(load_fixture("spmd_deadlock.fd"),
                                     /*jobs=*/1, /*n_procs=*/2);
  for (auto& proc : r.spmd.ast.procedures) partition_sends_first(proc->body);
  SpmdVerifyReport serial = verify_spmd(r.spmd);
  ThreadPool pool(4);
  SpmdVerifyReport parallel = verify_spmd(r.spmd, &pool);
  EXPECT_EQ(serial.text(), parallel.text());
  EXPECT_EQ(serial.deadlocks, parallel.deadlocks);
}

TEST(SpmdVerifier, SizeMismatchIsFlagged) {
  CompileResult r = compile_analyzed(kJacobi);
  // Widen the first recv's section by one element: same (src, dst,
  // array) channel, different payload.
  bool widened = false;
  for (auto& proc : r.spmd.ast.procedures) {
    walk_stmts(proc->body, [&](Stmt& s) {
      if (widened || s.kind != StmtKind::Recv || s.msg_section.empty())
        return;
      s.msg_section[0].ub = Expr::make_binary(
          BinOp::Add, std::move(s.msg_section[0].ub), Expr::make_int(1));
      widened = true;
    });
    if (widened) break;
  }
  ASSERT_TRUE(widened);
  SpmdVerifyReport v = verify_spmd(r.spmd);
  int mismatches = 0;
  for (const Diagnostic& d : v.diags)
    if (d.id == "fortd-spmd-size-mismatch") ++mismatches;
  EXPECT_GE(mismatches, 1) << v.text();
}

}  // namespace
}  // namespace fortd
