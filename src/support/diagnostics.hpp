// Diagnostics: source locations, error collection, and the exception type
// thrown on unrecoverable front-end or compiler errors.
#pragma once

#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace fortd {

/// A position in a Fortran D source buffer (1-based, 0 = unknown).
struct SourceLoc {
  int line = 0;
  int col = 0;

  bool valid() const { return line > 0; }
  std::string str() const;
};

enum class DiagLevel { Note, Warning, Error };

/// One reported diagnostic.
struct Diagnostic {
  DiagLevel level;
  SourceLoc loc;
  std::string message;
  /// Ordering key for reports from concurrent compilation workers: the
  /// procedure index of the reporting worker, or -1 for serial phases.
  /// `ordered()` sorts by this key (stably), so parallel code generation
  /// yields the same diagnostic order as a serial walk.
  int order_key = -1;
  /// Stable diagnostic id (e.g. "fortd-call-mismatch") for lint/verifier
  /// reports; empty for plain front-end diagnostics. Rendered clang-tidy
  /// style as a trailing "[id]" and used by tests to assert on findings.
  std::string id;

  std::string str() const;
};

/// Thrown when compilation cannot proceed (parse error, unsupported
/// construct, inconsistent decomposition, ...).
class CompileError : public std::runtime_error {
public:
  CompileError(SourceLoc loc, const std::string& msg);
  SourceLoc loc() const { return loc_; }

private:
  SourceLoc loc_;
};

/// Collects diagnostics for a compilation unit. Errors are recorded and
/// also thrown as CompileError by `error`; warnings/notes accumulate.
/// Reporting is thread-safe: code-generation workers may report
/// concurrently, tagging each diagnostic with their procedure index so
/// `ordered()` restores the deterministic serial order.
class DiagnosticEngine {
public:
  [[noreturn]] void error(SourceLoc loc, const std::string& msg,
                          int order_key = -1);
  void warning(SourceLoc loc, const std::string& msg, int order_key = -1);
  void note(SourceLoc loc, const std::string& msg, int order_key = -1);

  /// Non-throwing report with an explicit severity and diagnostic id —
  /// the entry point used by lint checkers and the SPMD verifier.
  void report(DiagLevel level, SourceLoc loc, const std::string& msg,
              const std::string& id, int order_key = -1);

  /// Raw diagnostics in arrival order. Only meaningful once no worker is
  /// reporting concurrently (arrival order is nondeterministic under
  /// parallel code generation — prefer `ordered()`).
  const std::vector<Diagnostic>& all() const { return diags_; }
  /// Diagnostics stably sorted by order_key: front-end reports (-1) first,
  /// then per-procedure reports by procedure index.
  std::vector<Diagnostic> ordered() const;
  int warning_count() const;

private:
  void record(DiagLevel level, SourceLoc loc, const std::string& msg,
              int order_key, const std::string& id = {});

  mutable std::mutex mu_;
  std::vector<Diagnostic> diags_;
  int warnings_ = 0;
};

}  // namespace fortd
