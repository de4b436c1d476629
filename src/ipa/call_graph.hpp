// The augmented call graph (ACG) of §5.1 / Fig. 5: procedures and call
// sites plus loop nodes and nesting edges, with the annotations the
// Fortran D compiler needs — which loops enclose each call site, and which
// formal parameters receive loop index variables (with their ranges).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/cfg.hpp"
#include "analysis/symbolic.hpp"
#include "ir/program.hpp"
#include "support/task_graph.hpp"

namespace fortd {

/// A loop enclosing a call site, with its constant-evaluated range when
/// available.
struct AcgLoop {
  const Stmt* stmt = nullptr;  // the DO statement in the caller
  std::string var;
  std::optional<Triplet> range;  // nullopt when bounds are not constant
};

struct CallSiteInfo {
  int site_id = -1;
  std::string caller;
  std::string callee;
  const Stmt* stmt = nullptr;  // the CALL statement (points into caller AST)
  std::vector<const Expr*> actuals;
  std::vector<AcgLoop> enclosing_loops;  // outermost first

  /// For each formal index of the callee: if the actual is a loop index
  /// variable of an enclosing loop, its range annotation (Fig. 5's
  /// "formal i iterates 1:100:1").
  std::map<int, Triplet> formal_loop_ranges;
};

/// The dependency graph every interprocedural pass schedules: one
/// TaskGraph node per procedure and an edge per call site, so a procedure
/// starts the moment its own callees (or callers) finish, not when a
/// whole depth level does. The passes publish into map entries pre-sized
/// before the run: a task assigns mapped values in place, concurrent
/// tasks touch disjoint entries, and a neighbour's read is ordered after
/// its write by the edge between them.
struct AcgTaskGraph {
  std::vector<int> order;       // node -> procedure index
  std::vector<size_t> node_of;  // procedure index -> node
  TaskGraph graph;
};

class AugmentedCallGraph {
public:
  /// Build the ACG. Throws CompileError on recursion (the single-pass
  /// compilation strategy requires an acyclic call graph) or on calls to
  /// undefined procedures that are not treated as intrinsics.
  static AugmentedCallGraph build(const BoundProgram& program);

  const std::vector<CallSiteInfo>& call_sites() const { return sites_; }
  std::vector<const CallSiteInfo*> calls_to(const std::string& callee) const;
  std::vector<const CallSiteInfo*> calls_from(const std::string& caller) const;
  const CallSiteInfo* site_for(const Stmt* call_stmt) const;

  /// Procedure names in topological order (callers before callees).
  const std::vector<std::string>& topological_order() const { return topo_; }
  /// Reverse topological order (callees before callers) — the order of
  /// interprocedural code generation.
  std::vector<std::string> reverse_topological_order() const;

  /// Index of `name` in the program's procedure list (the node id used by
  /// the index-based orders below), or -1 for unknown procedures.
  int procedure_index(const std::string& name) const;
  /// topological_order() as procedure indices — the hot-path form: code
  /// generation indexes `program.ast.procedures` directly instead of
  /// re-resolving names.
  const std::vector<int>& topological_indices() const { return topo_indices_; }
  std::vector<int> reverse_topological_indices() const;

  /// Wavefront partition of the reverse topological order: level 0 holds
  /// the leaves, and every procedure sits one level above its deepest
  /// callee. Procedures within a level are mutually independent and
  /// listed in reverse topological order (deterministic). Concatenating
  /// the levels yields a valid reverse topological order. The level count
  /// is the call graph's depth (fortdc -timings reports it).
  std::vector<std::vector<int>> wavefront_levels() const;

  /// Callees first (code generation, side effects): nodes follow
  /// reverse_topological_indices() and each waits for its callees.
  /// Otherwise callers first (reaching decompositions, aliases): nodes
  /// follow topological_indices() and each waits for its callers.
  AcgTaskGraph task_graph(bool callees_first) const;

private:
  std::vector<CallSiteInfo> sites_;
  // Per-caller / per-callee indices into sites_, in site-id (source) order.
  std::map<std::string, std::vector<int>> sites_from_;
  std::map<std::string, std::vector<int>> sites_to_;
  std::vector<std::string> topo_;
  std::vector<int> topo_indices_;
  std::map<std::string, int> index_of_;
  std::map<const Stmt*, int> site_of_stmt_;
};

}  // namespace fortd
