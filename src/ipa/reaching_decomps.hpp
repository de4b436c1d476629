// Interprocedural reaching decompositions — the algorithm of Fig. 6.
//
// Fortran D scoping makes this a one-top-down-pass problem: a procedure's
// reaching decompositions depend only on control flow in its *callers*
// (decomposition changes in callees are undone on return). Processing the
// ACG in topological order, each procedure's LocalReaching sets are
// resolved (⊤ expanded through Reaching(P)) and translated to its callees.
#pragma once

#include <map>
#include <set>
#include <string>

#include "ipa/call_graph.hpp"
#include "ipa/summaries.hpp"
#include "support/task_graph.hpp"

namespace fortd {

struct ReachingDecomps {
  /// Reaching(P): decompositions reaching procedure P from its callers,
  /// keyed by formal-parameter / global variable name.
  std::map<std::string, std::map<std::string, std::set<DecompSpec>>> reaching;

  /// Point-wise resolved solution: per procedure, per statement, the specs
  /// reaching each array (⊤ already expanded through Reaching).
  std::map<std::string,
           std::map<const Stmt*, std::map<std::string, std::set<DecompSpec>>>>
      at_stmt;

  /// All specs that reach any statement of `proc` for `var`.
  std::set<DecompSpec> specs_for(const std::string& proc,
                                 const std::string& var) const;

  /// The unique decomposition of `var` throughout `proc`, when there is
  /// exactly one (the common case after cloning). nullopt when the
  /// variable is replicated (no decomposition) or has several specs.
  std::optional<DecompSpec> unique_spec(const std::string& proc,
                                        const std::string& var) const;

  /// True when more than one distinct spec reaches `var` in `proc` —
  /// requires cloning or run-time resolution.
  bool has_conflict(const std::string& proc, const std::string& var) const;

  /// Specs reaching `var` at a specific statement.
  std::set<DecompSpec> specs_at(const std::string& proc, const Stmt* stmt,
                                const std::string& var) const;
};

class ThreadPool;

/// Reaching(P) pulled from the already-resolved `at_stmt` entries of P's
/// callers: the union over every call site targeting P of the translated
/// (formal- and global-matched) specs at that site. Pure read of `rd`.
std::map<std::string, std::set<DecompSpec>> pull_reaching(
    const BoundProgram& program, const AugmentedCallGraph& acg,
    const ReachingDecomps& rd, const std::string& callee);

/// Recompute Reaching and at_stmt top-down over the caller-before-callee
/// dependency order (pending procedures run concurrently on `pool` when
/// given, work-stealing; identical maps for every jobs count), reusing
/// everything else already in `rd`.
///
/// `dirty` seeds the procedures whose *text* changed (they are always
/// recomputed). Caller changes propagate with a change cutoff: a callee of
/// a recomputed caller is re-pulled, and only recomputed when the pulled
/// Reaching set differs from its stored entry — Reaching and at_stmt are
/// pure functions of (pulled input, procedure text), so an equal pull with
/// unchanged text proves the stored solution still holds. Returns the
/// number of procedures actually recomputed.
int update_reaching_decomps(const BoundProgram& program,
                            const AugmentedCallGraph& acg,
                            const std::map<std::string, ProcSummary>& summaries,
                            const std::set<std::string>& dirty,
                            ReachingDecomps& rd, ThreadPool* pool = nullptr,
                            TaskGraphStats* sched_stats = nullptr);

ReachingDecomps compute_reaching_decomps(
    const BoundProgram& program, const AugmentedCallGraph& acg,
    const std::map<std::string, ProcSummary>& summaries,
    ThreadPool* pool = nullptr);

}  // namespace fortd
