// Interprocedural Fortran D lint: a registry of Checker passes run by the
// LintDriver between interprocedural analysis and code generation.
//
// Checkers consume the products every compile already builds — the bound
// program, the IpaContext (ACG, summaries, side effects, reaching
// decompositions, clone map), and the interprocedural overlap estimates —
// so linting adds no new analysis passes, only new consumers. Each checker
// examines one procedure at a time, which makes the whole pass
// embarrassingly parallel; diagnostics carry an order_key so the report is
// byte-identical for any worker count (the same discipline as parallel
// code generation).
//
// Built-in checkers (stable ids, asserted by tests/lint fixtures):
//   fortd-call-mismatch   conflicting decompositions reach a callee
//   fortd-overlap-bounds  overlap demand exceeds the local block extent
//   fortd-loop-sequential partitioned loop degenerates to one processor
//   fortd-dead-decomp     DISTRIBUTE/ALIGN killed or unused before any use
//   fortd-alias-hazard    write through one name of a may-alias pair
#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "codegen/options.hpp"
#include "ipa/cloning.hpp"
#include "ipa/overlap_prop.hpp"
#include "support/diagnostics.hpp"

namespace fortd {

class ThreadPool;

struct LintOptions {
  /// Run the checker registry between IPA and code generation.
  bool analyze = false;
  /// Run the SpmdVerifier over the generated program after code
  /// generation (see analysis/lint/spmd_verifier.hpp).
  bool verify_spmd = false;
  /// Checker ids to skip.
  std::set<std::string> disabled;
};

/// Everything a checker may read. All references outlive the lint run and
/// are only read, never mutated — checkers must stay thread-safe across
/// procedures.
struct LintContext {
  const BoundProgram& program;
  const IpaContext& ipa;
  const OverlapEstimates& overlaps;
  const CodegenOptions& options;
};

/// Reporting facade handed to a checker for one (checker, procedure)
/// cell: stamps every diagnostic with the checker id and the cell's
/// deterministic order key.
class LintSink {
public:
  LintSink(DiagnosticEngine& diags, std::string id, int order_key)
      : diags_(diags), id_(std::move(id)), order_key_(order_key) {}

  void warning(SourceLoc loc, const std::string& msg) {
    diags_.report(DiagLevel::Warning, loc, msg, id_, order_key_);
  }
  void note(SourceLoc loc, const std::string& msg) {
    diags_.report(DiagLevel::Note, loc, msg, id_, order_key_);
  }

private:
  DiagnosticEngine& diags_;
  std::string id_;
  int order_key_;
};

/// One lint pass. Implementations live in analysis/lint/checkers.cpp.
class Checker {
public:
  virtual ~Checker() = default;
  virtual const char* id() const = 0;
  virtual const char* description() const = 0;
  /// Examine one procedure. Called once per procedure of the post-cloning
  /// program, possibly concurrently with other procedures — report only
  /// through `sink`, never touch shared state.
  virtual void check(const LintContext& ctx, const std::string& proc,
                     LintSink& sink) const = 0;
};

struct LintReport {
  /// Diagnostics in deterministic order (checker registration order, then
  /// procedure order, then report order within one cell).
  std::vector<Diagnostic> diags;
  int warnings = 0;
  int notes = 0;

  bool empty() const { return diags.empty(); }
  /// Fold diagnostics from another source (e.g. the SPMD verifier) into
  /// this report, recounting warnings/notes, so one report serializes all
  /// findings uniformly (text() and json() carry every Diagnostic.id).
  void append(const std::vector<Diagnostic>& more);
  /// One diagnostic per line, `Diagnostic::str()` format.
  std::string text() const;
  /// JSON array of {id, level, line, col, message} objects.
  std::string json() const;
  /// Number of diagnostics carrying `id`.
  int count(const std::string& id) const;
};

class LintDriver {
public:
  /// Constructs the driver with the built-in checker registry (minus
  /// options.disabled).
  explicit LintDriver(LintOptions options = {});

  const std::vector<std::unique_ptr<Checker>>& checkers() const {
    return checkers_;
  }

  /// Run every registered checker over every procedure. With a pool the
  /// (checker, procedure) cells run concurrently; the report is
  /// byte-identical to the serial walk.
  LintReport run(const LintContext& ctx, ThreadPool* pool = nullptr) const;

private:
  LintOptions options_;
  std::vector<std::unique_ptr<Checker>> checkers_;
};

/// The built-in registry, in deterministic registration order.
std::vector<std::unique_ptr<Checker>> make_default_checkers();

}  // namespace fortd
