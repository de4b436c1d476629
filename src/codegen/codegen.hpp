// Interprocedural code generation driver (§5, Fig. 9/11/13/17): compiles
// procedures in reverse topological order, exactly once each, delaying
// instantiation of the computation partition, communication, and dynamic
// data decomposition so callers can optimize across procedure boundaries.
//
// The reverse topological walk is scheduled barrier-free: a TaskGraph
// node per procedure, dependency edges to its callees, and a
// work-stealing run over the shared ThreadPool (options.jobs > 1) — a
// caller starts the moment its own callees finish. Each ProcGen touches
// only its own state; results are committed in fixed reverse topological
// order after the run, so output is byte-identical to the serial walk
// regardless of completion order. An optional content-hashed
// CompilationCache short-circuits generation of procedures whose §8
// recompilation-test inputs are unchanged since a previous compile.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>

#include "codegen/comm.hpp"
#include "codegen/options.hpp"
#include "codegen/partition.hpp"
#include "codegen/spmd.hpp"
#include "ipa/cloning.hpp"
#include "ipa/overlap_prop.hpp"
#include "support/task_graph.hpp"

namespace fortd {

class CompilationCache;
struct ProcOut;  // internal per-procedure result slot (codegen.cpp)

/// Everything a compiled procedure exports to its (not yet compiled)
/// callers — the concrete realization of "delayed instantiation".
struct ProcExports {
  /// Unified iteration set of the procedure (Fig. 9): Constrained when
  /// every effectful statement shares one owner-computes constraint on a
  /// formal; Universal when the procedure guards internally.
  IterationSet iter_set;
  /// Pending communication events, in the procedure's own name space.
  std::vector<CommEvent> pending_comms;
  /// Symbolic write sections per array (in formal terms) — the RSD
  /// def summaries callers use for dependence checks when hoisting.
  std::map<std::string, std::vector<SymSection>> sym_defs;
  /// Dynamic-data-decomposition summary sets (Fig. 17).
  std::set<std::string> decomp_use;
  std::set<std::string> decomp_kill;
  std::vector<std::pair<DecompSpec, std::string>> decomp_before;
  std::vector<std::pair<DecompSpec, std::string>> decomp_after;
  /// Scalars (formals/globals) the procedure may modify — a caller that
  /// guards this call must re-broadcast them.
  std::set<std::string> scalar_mods;
  /// True when the compiled body contains message statements; such a
  /// procedure must be invoked by every processor.
  bool contains_comm = false;
  /// Overlap demand observed from shift communication: array ->
  /// (lower, upper) element counts along the distributed dimension.
  std::map<std::string, std::pair<int64_t, int64_t>> shift_demand;
};

class CodeGenerator {
public:
  /// `cache`, when non-null, is consulted before generating each
  /// procedure and filled with every procedure generated. `overlaps`,
  /// when non-null, is copied instead of recomputed. `pool`, when
  /// non-null, is borrowed for parallel schedules (options.jobs > 1);
  /// otherwise generate() creates a transient pool of its own.
  CodeGenerator(const BoundProgram& program, const IpaContext& ipa,
                const CodegenOptions& options,
                CompilationCache* cache = nullptr,
                const OverlapEstimates* overlaps = nullptr,
                ThreadPool* pool = nullptr);

  /// Compile the whole program (one pass per procedure) over the ACG
  /// dependency graph with a work-stealing schedule. Parallel schedules
  /// (options.jobs > 1) produce output byte-identical to the serial walk.
  SpmdProgram generate();

  /// Work-stealing scheduler counters of the last generate() (all zero
  /// for an empty program).
  const TaskGraphStats& scheduler_stats() const { return sched_stats_; }

  /// Names of the procedures that actually ran through ProcGen in the
  /// last generate() — cache hits are excluded. Reverse topological
  /// order.
  const std::vector<std::string>& generated_procedures() const {
    return last_generated_;
  }

  const BoundProgram& program() const { return program_; }
  const IpaContext& ipa() const { return ipa_; }
  const CodegenOptions& options() const { return options_; }
  const OverlapEstimates& overlaps() const { return overlaps_; }

private:
  friend class ProcGen;

  /// Fills `outs` (indexed by procedure index), publishes exports_,
  /// appends last_generated_, and inserts cache entries in
  /// deterministic reverse topological order.
  void schedule(std::vector<ProcOut>& outs);

  const BoundProgram& program_;
  const IpaContext& ipa_;
  CodegenOptions options_;
  OverlapEstimates overlaps_;
  CompilationCache* cache_ = nullptr;
  ThreadPool* pool_ = nullptr;  // borrowed; may be null
  /// Exports of completed procedures: pre-sized with every procedure
  /// name before the run, then tasks assign mapped values in place —
  /// map structure is never mutated concurrently, and a dependency edge
  /// orders each callee's write before any caller's read.
  std::map<std::string, ProcExports> exports_;
  std::vector<std::string> last_generated_;
  TaskGraphStats sched_stats_;
  SpmdProgram result_;
};

/// Convenience wrapper: run code generation end to end.
SpmdProgram generate_spmd(const BoundProgram& program, const IpaContext& ipa,
                          const CodegenOptions& options);

}  // namespace fortd
