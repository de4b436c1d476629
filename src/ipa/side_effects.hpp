// Interprocedural scalar and array side-effect analysis (GMOD/GREF) and
// the Appear(P) sets of §5.2: Appear(P) = Gmod(P) ∪ Gref(P), the formals
// and globals accessed by P or its descendants. Computed bottom-up over
// the ACG, translating callee formals to actuals at each call site.
//
// Array def/use *sections* (RSD summaries, §5.4) propagate alongside:
// `gdefs`/`guses` give, per procedure, the sections of each array that may
// be defined/used by the procedure or its descendants, in the procedure's
// own name space.
#pragma once

#include <map>
#include <set>
#include <string>

#include "ipa/alias.hpp"
#include "ipa/call_graph.hpp"
#include "ipa/summaries.hpp"
#include "support/task_graph.hpp"

namespace fortd {

struct SideEffects {
  /// Transitive MOD/REF per procedure (variable names in that procedure).
  std::map<std::string, std::set<std::string>> gmod;
  std::map<std::string, std::set<std::string>> gref;
  /// Transitive array def/use sections per procedure.
  std::map<std::string, std::map<std::string, RsdList>> gdefs;
  std::map<std::string, std::map<std::string, RsdList>> guses;

  /// Appear(P): formals and globals of P in Gmod(P) ∪ Gref(P).
  std::set<std::string> appear(const std::string& proc,
                               const BoundProgram& program) const;
};

/// Translate a callee-scope variable name to the caller scope at a call
/// site: formals map to their actual argument's base variable (nullopt for
/// expression actuals), globals map to themselves.
std::optional<std::string> translate_to_caller(const std::string& callee_var,
                                               const Procedure& callee,
                                               const CallSiteInfo& site);

class ThreadPool;

/// One procedure's transitive effects, computed from its summary plus the
/// already-published entries of its callees in `fx` (missing callee
/// entries contribute nothing). With `aliases`, each entry is widened over
/// the procedure's may-alias pairs: a write through one member of a pair
/// may write the other's storage (§6.4), so mod/ref names and def/use
/// sections close over the pair set.
struct ProcEffects {
  std::set<std::string> mod;
  std::set<std::string> ref;
  std::map<std::string, RsdList> defs;
  std::map<std::string, RsdList> uses;
};
ProcEffects compute_proc_effects(const BoundProgram& program,
                                 const AugmentedCallGraph& acg,
                                 const std::map<std::string, ProcSummary>& summaries,
                                 const SideEffects& fx, const std::string& name,
                                 const AliasMap* aliases = nullptr);

/// Recompute the entries of every procedure in `dirty` bottom-up over the
/// ACG (callee-before-caller dependency order; dirty procedures run
/// concurrently on `pool` when given, work-stealing), reusing all other
/// entries already in `fx`. `dirty` must be closed upward: a procedure
/// whose callee is dirty must itself be dirty. Resulting maps are
/// identical for every schedule and jobs count. `sched_stats`, when
/// non-null, accumulates the work-stealing run's counters.
void update_side_effects(const BoundProgram& program,
                         const AugmentedCallGraph& acg,
                         const std::map<std::string, ProcSummary>& summaries,
                         const std::set<std::string>& dirty, SideEffects& fx,
                         ThreadPool* pool = nullptr,
                         TaskGraphStats* sched_stats = nullptr,
                         const AliasMap* aliases = nullptr);

SideEffects compute_side_effects(const BoundProgram& program,
                                 const AugmentedCallGraph& acg,
                                 const std::map<std::string, ProcSummary>& summaries,
                                 ThreadPool* pool = nullptr,
                                 const AliasMap* aliases = nullptr);

}  // namespace fortd
