// Local (per-procedure) summary information, collected "at the end of an
// editing session" in the ParaScope model (§4, phase 1). Summaries are the
// only inputs interprocedural propagation needs, so a procedure body is
// examined exactly once per edit.
//
// Contents per procedure:
//   * the procedure digest (keys the §8 caches; see hash_procedure),
//   * scalar/array MOD and REF sets (local effects only),
//   * array def/use sections as RSDs (interprocedural dependence, §5.4),
//   * static alignments and the executable DISTRIBUTE statements,
//   * LocalReaching decomposition sets at each call site (Fig. 6),
//   * constant overlap offsets per array dimension (Fig. 13).
#pragma once

#include <map>
#include <set>
#include <string>

#include "ipa/call_graph.hpp"
#include "ir/decomp.hpp"
#include "ir/program.hpp"
#include "ir/rsd.hpp"

namespace fortd {

/// Static alignment of an array: target decomposition and the permutation
/// align_perm[target_dim] = array_dim.
struct AlignInfo {
  std::string target;
  std::vector<int> perm;
};

/// Maximum constant subscript offsets per array dimension, relative to the
/// assignment's lhs subscript when comparable (Fig. 13's overlap offsets).
struct OverlapOffsets {
  std::vector<int64_t> pos;  // upper overlap demand per dim
  std::vector<int64_t> neg;  // lower overlap demand per dim (>= 0 values)

  void ensure_rank(int rank);
  void merge(const OverlapOffsets& o);
  std::string str() const;
};

/// Decomposition sets reaching one call site: variable -> set of specs
/// (possibly containing DecompSpec::top() for the inherited decomposition).
struct LocalReachingEntry {
  const Stmt* call_stmt = nullptr;
  std::string callee;
  std::map<std::string, std::set<DecompSpec>> reaching;
};

struct ProcSummary {
  std::string proc;
  uint64_t hash = 0;  // hash_procedure, set by compute_summaries_into
  std::set<std::string> mod;  // variables assigned locally
  std::set<std::string> ref;  // variables read locally
  std::map<std::string, RsdList> defs;  // array sections defined locally
  std::map<std::string, RsdList> uses;  // array sections used locally
  std::map<std::string, AlignInfo> align;
  std::vector<const Stmt*> distribute_stmts;
  std::vector<LocalReachingEntry> local_reaching;
  std::map<std::string, OverlapOffsets> overlaps;
  bool has_dynamic_decomp = false;
};

/// The DecompSpec a DISTRIBUTE statement induces on a given array (either
/// the direct target or an array aligned with the target decomposition).
/// Returns nullopt when the statement does not affect the array.
std::optional<DecompSpec> spec_for_array(
    const Stmt& distribute, const std::string& array, int array_rank,
    const std::map<std::string, AlignInfo>& align);

/// Arrays affected by a DISTRIBUTE statement.
std::vector<std::string> affected_arrays(
    const Stmt& distribute, const Procedure& proc, const SymbolTable& st,
    const std::map<std::string, AlignInfo>& align);

/// Point-wise reaching decompositions inside one procedure: for every
/// statement, the specs reaching each array. `inherited` supplies the
/// expansion of ⊤ for formals/globals (empty set values keep ⊤ explicit).
std::map<const Stmt*, std::map<std::string, std::set<DecompSpec>>>
compute_local_reaching(const BoundProgram& program, const Procedure& proc,
                       const std::map<std::string, std::set<DecompSpec>>& inherited);

/// Full local analysis of one procedure (`hash` left 0).
ProcSummary compute_summary(const BoundProgram& program, const std::string& proc);

class ThreadPool;
class IpaSummaryCache;

/// Counters filled by the summary phase (see IpaStats / CompilerStats).
struct SummaryPhaseStats {
  int computed = 0;  // ran compute_summary
  int cached = 0;    // rehydrated from the IpaSummaryCache
};

/// Compute (or fetch from `cache`) summaries for `names` and store them
/// into `out`, overwriting existing entries. compute_summary is a pure
/// function of the procedure text, so the batch is embarrassingly
/// parallel on `pool`; results are independent of schedule. All of
/// `pool`, `cache`, and `stats` may be null.
void compute_summaries_into(const BoundProgram& program,
                            const std::vector<std::string>& names,
                            std::map<std::string, ProcSummary>& out,
                            ThreadPool* pool = nullptr,
                            IpaSummaryCache* cache = nullptr,
                            SummaryPhaseStats* stats = nullptr);

/// Summaries for every procedure.
std::map<std::string, ProcSummary> compute_all_summaries(
    const BoundProgram& program, ThreadPool* pool,
    IpaSummaryCache* cache = nullptr, SummaryPhaseStats* stats = nullptr);
std::map<std::string, ProcSummary> compute_all_summaries(const BoundProgram& program);

/// The procedure's digest: fnv1a over the bytes write_procedure writes,
/// source positions excluded. Keys the summary cache and, through
/// ProcSummary::hash, the procedure cache.
uint64_t hash_procedure(const Procedure& proc);

}  // namespace fortd
