#include "analysis/lint/lint.hpp"

#include "support/thread_pool.hpp"

namespace fortd {

namespace {

const char* level_str(DiagLevel level) {
  switch (level) {
    case DiagLevel::Error: return "error";
    case DiagLevel::Warning: return "warning";
    case DiagLevel::Note: return "note";
  }
  return "?";
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

void LintReport::append(const std::vector<Diagnostic>& more) {
  for (const Diagnostic& d : more) {
    diags.push_back(d);
    if (d.level == DiagLevel::Warning) ++warnings;
    if (d.level == DiagLevel::Note) ++notes;
  }
}

std::string LintReport::text() const {
  std::string out;
  for (const Diagnostic& d : diags) out += d.str() + "\n";
  return out;
}

std::string LintReport::json() const {
  std::string out = "[";
  for (size_t i = 0; i < diags.size(); ++i) {
    const Diagnostic& d = diags[i];
    if (i) out += ",";
    out += "\n  {\"id\": \"" + json_escape(d.id) + "\", \"level\": \"" +
           level_str(d.level) + "\", \"line\": " + std::to_string(d.loc.line) +
           ", \"col\": " + std::to_string(d.loc.col) + ", \"message\": \"" +
           json_escape(d.message) + "\"}";
  }
  out += diags.empty() ? "]\n" : "\n]\n";
  return out;
}

int LintReport::count(const std::string& id) const {
  int n = 0;
  for (const Diagnostic& d : diags)
    if (d.id == id) ++n;
  return n;
}

LintDriver::LintDriver(LintOptions options) : options_(std::move(options)) {
  for (auto& checker : make_default_checkers()) {
    if (options_.disabled.count(checker->id())) continue;
    checkers_.push_back(std::move(checker));
  }
}

LintReport LintDriver::run(const LintContext& ctx, ThreadPool* pool) const {
  // One cell per (checker, procedure); procedures in AST order (the
  // post-cloning program lists clones after their origins, so the order is
  // stable across worker counts). Each cell gets a unique order key, so
  // ordered() restores the serial report regardless of schedule.
  DiagnosticEngine diags;
  const size_t n_procs = ctx.program.ast.procedures.size();
  const size_t n_cells = checkers_.size() * n_procs;
  auto run_cell = [&](size_t cell) {
    const size_t c = cell / n_procs;
    const size_t p = cell % n_procs;
    const std::string& proc = ctx.program.ast.procedures[p]->name;
    LintSink sink(diags, checkers_[c]->id(), static_cast<int>(cell));
    checkers_[c]->check(ctx, proc, sink);
  };
  if (pool && pool->size() > 0) {
    pool->parallel_for(n_cells, run_cell);
  } else {
    for (size_t cell = 0; cell < n_cells; ++cell) run_cell(cell);
  }

  LintReport report;
  report.diags = diags.ordered();
  for (const Diagnostic& d : report.diags) {
    if (d.level == DiagLevel::Warning) ++report.warnings;
    if (d.level == DiagLevel::Note) ++report.notes;
  }
  return report;
}

}  // namespace fortd
