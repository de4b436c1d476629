// Interprocedural may-alias analysis at call boundaries (the paper's
// truncated §6.4, reconstructed): two names in a procedure may alias when
// some call chain binds them to overlapping storage. Pairs are introduced
// at call sites —
//   formal↔formal : two actuals at one site share a base array and their
//                   sections (via the RSD algebra, with Fortran sequence
//                   association for subscripted actuals) are not provably
//                   disjoint, or a caller-side alias pair maps onto two
//                   distinct formals;
//   formal↔global : an actual's base is visible in the callee as a COMMON
//                   global (the classic reference/COMMON aliasing case);
// and flow caller→callee over the AugmentedCallGraph (a callee inherits
// aliasing from every site that can reach it, so propagation runs callers
// first — the same top-down direction as ReachingDecomps).
//
// The result is schedule-invariant: per-procedure entries are canonical
// std::set unions of per-site contributions, so serial and parallel
// work-stealing runs produce byte-identical maps. Pair members (not
// provenance) are written into the §8 recompilation digests
// (write_codegen_inputs), and entries feed procedure cloning,
// side-effect widening, and the `fortd-alias-hazard` checker.
#pragma once

#include <map>
#include <set>
#include <string>

#include "ipa/call_graph.hpp"
#include "support/task_graph.hpp"

namespace fortd {

class ThreadPool;

/// One may-alias pair in a procedure's name space. Ordering and equality
/// use the (sorted) member names only; `via`/`loc` carry the provenance of
/// the first inducing call site for diagnostics and are not identity.
struct AliasPair {
  std::string a;  // lexicographically smaller member
  std::string b;
  std::string via;  // caller whose call site induced the pair
  SourceLoc loc;    // location of that call site

  static AliasPair make(std::string x, std::string y, std::string via_proc,
                        SourceLoc site_loc);

  bool operator<(const AliasPair& o) const {
    if (a != o.a) return a < o.a;
    return b < o.b;
  }
  bool operator==(const AliasPair& o) const { return a == o.a && b == o.b; }
};

/// Per-procedure may-alias pairs over formals and COMMON globals.
struct AliasMap {
  std::map<std::string, std::set<AliasPair>> pairs;

  /// The procedure's pair set, or nullptr when it has none.
  const std::set<AliasPair>* of(const std::string& proc) const;
  /// Whether `x` and `y` may alias in `proc` (order-insensitive).
  bool may_alias(const std::string& proc, const std::string& x,
                 const std::string& y) const;
  /// The stored pair for {x, y} in `proc` (with provenance), or nullptr.
  const AliasPair* find(const std::string& proc, const std::string& x,
                        const std::string& y) const;

  int total_pairs() const;
  /// Canonical textual dump (members + provenance), for invariance tests.
  std::string str() const;
};

/// One procedure's pairs pulled from its call sites and its callers'
/// already-published entries. Pure: the union over sites is canonical, so
/// any schedule that publishes callers first computes the same entry.
std::set<AliasPair> pull_alias(const BoundProgram& program,
                               const AugmentedCallGraph& acg,
                               const AliasMap& am, const std::string& name);

/// Compute the full may-alias map top-down over the ACG on the
/// barrier-free work-stealing TaskGraph (nodes depend on their callers);
/// entries are byte-identical to a serial run. `sched_stats`, when
/// non-null, accumulates the run's counters.
AliasMap compute_alias_map(const BoundProgram& program,
                           const AugmentedCallGraph& acg,
                           ThreadPool* pool = nullptr,
                           TaskGraphStats* sched_stats = nullptr);

}  // namespace fortd
