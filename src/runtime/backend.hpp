// SPMD execution backends.
//
// An ExecutionBackend runs a compiled SpmdProgram end to end and reports
// what actually happened: final array contents (gatherable per element
// owner), per-processor message counts and payload bytes, and remap
// traffic. Both kinds run the P processors as fibers on the calling thread
// under one deterministic scheduler (runtime/scheduler.hpp) and share one
// processor class, so the values they compute are bit-identical; only the
// transport and the clocks differ:
//
//   * `sim`     — sends are buffered, and each processor's logical clock
//                 charges the CostModel (src/machine). Its message counts
//                 and clocks are the paper's Fig. 11/16/17 quantities —
//                 the *predictions* the harness checks the `threads` run
//                 against.
//   * `threads` — a send returns only after its receiver has taken the
//                 message (rendezvous), so ordering deadlocks that
//                 buffering hides surface here. It charges nothing. The
//                 kind keeps its name from when it ran one OS thread per
//                 processor; no thread runs now.
//
// Both realize collectives alike (gather-to-root + broadcast for
// reductions, root fan-out for broadcasts), so their counts agree message
// for message, and both remap by pulling newly owned elements from the
// previous owner's copy between two barriers. A deadlock is reported at
// once, naming every blocked processor and its statement; a failing
// processor's own error is rethrown.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "codegen/spmd.hpp"
#include "machine/cost_model.hpp"
#include "runtime/eval.hpp"

namespace fortd {

enum class BackendKind { Simulator, Threaded };

/// Parse "sim" / "threads" (also accepts "simulator" / "threaded").
std::optional<BackendKind> parse_backend_kind(const std::string& name);
const char* backend_kind_name(BackendKind kind);

/// What one backend execution observed.
struct ExecResult {
  std::string backend;
  int n_procs = 1;
  double wall_ms = 0.0;      // real time spent inside execute()
  double sim_time_us = 0.0;  // simulator backend only: max logical clock

  // Point-to-point + collective traffic from the generated communication
  // statements (excludes redistribution, reported separately — it moves
  // data between copies, not as messages).
  int64_t messages = 0;  // == sum of per_proc sends == sum of recvs
  int64_t bytes = 0;     // payload bytes of those messages
  int64_t remaps_executed = 0;  // data-moving redistributions
  int64_t remap_bytes = 0;      // elements moved * elem_bytes

  std::vector<ProcStats> per_proc;

  /// The authoritative final contents of a main-program array, assembled
  /// from each element's owner (context 0's run-time registry supplies
  /// the distribution unless one is passed explicitly).
  std::vector<double> gather(const std::string& array) const;
  std::vector<double> gather(const std::string& array,
                             const DecompSpec& spec) const;
  double gather_scalar(const std::string& name) const;
  /// Main-program array names, sorted (the diffable surface).
  std::vector<std::string> main_arrays() const;

  // Internal: kept alive for gather().
  std::shared_ptr<void> keepalive;
  std::vector<const EvalCore*> contexts;
};

class ExecutionBackend {
 public:
  /// `cost_model` prices the `sim` kind; `threads` charges nothing.
  explicit ExecutionBackend(BackendKind kind,
                            const CostModel& cost_model = CostModel::ipsc860());

  std::string name() const { return backend_kind_name(kind_); }
  /// Run `program` on program.options.n_procs processors to completion.
  /// Throws on execution errors, detected deadlocks included.
  ExecResult execute(const SpmdProgram& program) const;

 private:
  BackendKind kind_;
  CostModel cost_;
};

std::unique_ptr<ExecutionBackend> make_backend(BackendKind kind);

/// Execute the *original* (pre-SPMD) program on a single process with no
/// communication — the serial reference the differential harness diffs
/// parallel executions against (the ast must outlive the result).
ExecResult run_serial_reference(const SourceProgram& ast);

}  // namespace fortd
