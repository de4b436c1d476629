// The differential execution harness (the NASA debugging-support shape):
// run the compiled SPMD program on the requested backend, diff its numeric
// results against a serial execution of the *original* program, and
// cross-check the observed per-processor message counts and payload
// bytes against the simulator's predictions — the paper's Fig. 11/16/17
// quantities.
#pragma once

#include <string>
#include <vector>

#include "runtime/backend.hpp"

namespace fortd {

struct HarnessOptions {
  BackendKind backend = BackendKind::Threaded;
};

struct HarnessReport {
  ExecResult run;        // the requested backend's execution
  ExecResult predicted;  // simulator prediction (empty unless cross-checked)
  ExecResult serial;     // serial reference of the original program

  bool numerics_ok = true;
  bool counts_ok = true;
  double max_abs_err = 0.0;
  int arrays_checked = 0;
  int scalars_checked = 0;
  std::vector<std::string> failures;

  bool ok() const { return numerics_ok && counts_ok; }
  /// Human-readable multi-line summary (one line per check).
  std::string text() const;
};

/// Execute `spmd` on the requested backend and validate it against the
/// serial execution of `original` (the pre-codegen program), to an
/// absolute 1e-9 (parallel reductions combine in a fixed rank order, so
/// everything but reduction round-off is bit-identical), and, for the
/// `threads` backend, its traffic exactly against the simulator's
/// prediction (for `sim` that would compare the run against itself). Both
/// programs must outlive the report (their ASTs back the ExecResults).
HarnessReport run_and_check(const SourceProgram& original,
                            const SpmdProgram& spmd,
                            const HarnessOptions& options = {});

}  // namespace fortd
