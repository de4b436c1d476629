#include "support/diagnostics.hpp"

#include <algorithm>

namespace fortd {

std::string SourceLoc::str() const {
  if (!valid()) return "<unknown>";
  return std::to_string(line) + ":" + std::to_string(col);
}

std::string Diagnostic::str() const {
  const char* lvl = level == DiagLevel::Error     ? "error"
                    : level == DiagLevel::Warning ? "warning"
                                                  : "note";
  std::string s = loc.str() + ": " + lvl + ": " + message;
  if (!id.empty()) s += " [" + id + "]";
  return s;
}

CompileError::CompileError(SourceLoc loc, const std::string& msg)
    : std::runtime_error(loc.str() + ": error: " + msg), loc_(loc) {}

void DiagnosticEngine::record(DiagLevel level, SourceLoc loc,
                              const std::string& msg, int order_key,
                              const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  diags_.push_back({level, loc, msg, order_key, id});
  if (level == DiagLevel::Warning) ++warnings_;
}

void DiagnosticEngine::report(DiagLevel level, SourceLoc loc,
                              const std::string& msg, const std::string& id,
                              int order_key) {
  record(level, loc, msg, order_key, id);
}

void DiagnosticEngine::error(SourceLoc loc, const std::string& msg,
                             int order_key) {
  record(DiagLevel::Error, loc, msg, order_key);
  throw CompileError(loc, msg);
}

void DiagnosticEngine::warning(SourceLoc loc, const std::string& msg,
                               int order_key) {
  record(DiagLevel::Warning, loc, msg, order_key);
}

void DiagnosticEngine::note(SourceLoc loc, const std::string& msg,
                            int order_key) {
  record(DiagLevel::Note, loc, msg, order_key);
}

std::vector<Diagnostic> DiagnosticEngine::ordered() const {
  std::vector<Diagnostic> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = diags_;
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return a.order_key < b.order_key;
                   });
  return out;
}

int DiagnosticEngine::warning_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return warnings_;
}

}  // namespace fortd
