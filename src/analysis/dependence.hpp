// Data dependence analysis over affine subscripts (ZIV and strong-SIV
// tests, conservative fallback), providing exactly what Fortran D code
// generation needs:
//
//   * "communication is generated only for nonlocal references that cause
//     true dependences carried by loops within the procedure" — §5.4
//   * "message vectorization uses the level of the deepest loop-carried
//     true dependence to combine messages at outer loop levels" — §3/§5.4
//
// Levels are 1-based from the outermost loop of the sink's nest; level 0
// means no enclosing loop carries the dependence (the message can be
// vectorized out of the whole nest / passed to callers).
#pragma once

#include <optional>
#include <vector>

#include "analysis/cfg.hpp"
#include "analysis/symbolic.hpp"

namespace fortd {

/// One array reference with its context.
struct RefInfo {
  const Stmt* stmt = nullptr;
  const Expr* ref = nullptr;  // ArrayRef expression
  bool is_write = false;
  std::vector<const Stmt*> nest;  // enclosing DO statements, outermost first
};

/// All array references in a procedure (assignments only; CALL arguments
/// are summarized interprocedurally, not here).
std::vector<RefInfo> collect_refs(const Procedure& proc, const LoopTree& loops);

enum class DepKind { True, Anti, Output };

struct Dependence {
  DepKind kind;
  std::string array;
  const Stmt* src;
  const Stmt* sink;
  /// 1-based level of the carrying loop in the *common* nest; 0 for
  /// loop-independent dependences.
  int level;
  /// Carried distance at `level` when known (SIV), nullopt for '*'.
  std::optional<int64_t> distance;
};

class DependenceAnalysis {
public:
  DependenceAnalysis(const Procedure& proc, const SymbolicEnv& env);

  /// All pairwise dependences among assignment references.
  const std::vector<Dependence>& all() const { return deps_; }

  /// Deepest loop level (1-based, within `read`'s nest) carrying a true
  /// dependence whose sink is the given rhs reference; 0 when no enclosing
  /// loop carries one. This is the paper's "commlevel".
  int deepest_true_dep_level_into(const Expr* read_ref) const;

  const std::vector<RefInfo>& refs() const { return refs_; }

private:
  void test_pair(const RefInfo& w, const RefInfo& r);

  const Procedure& proc_;
  const SymbolicEnv& env_;
  LoopTree loops_;
  std::vector<RefInfo> refs_;
  std::vector<Dependence> deps_;
  // Sink ref -> deepest carried true-dep level.
  std::map<const Expr*, int> true_dep_level_;
};

}  // namespace fortd
