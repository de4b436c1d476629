// Procedure cloning (Fig. 8) and the overall interprocedural analysis
// driver. Call sites to P are partitioned by
// Filter(Translate(LocalReaching(C)), Appear(P)); each partition beyond
// the first gets a clone of P so every procedure body sees a unique
// decomposition per variable. Exceeding the growth threshold flips the
// offending procedure to run-time resolution, as §5.2 prescribes.
#pragma once

#include <map>
#include <set>
#include <string>

#include "ipa/alias.hpp"
#include "ipa/call_graph.hpp"
#include "ipa/reaching_decomps.hpp"
#include "ipa/side_effects.hpp"
#include "ipa/summaries.hpp"

namespace fortd {

struct IpaOptions {
  /// Growth threshold: cloning stops (falling back to run-time
  /// resolution) once the program would exceed this many procedures.
  int max_procedures = 256;
  /// After a cloning pass, recompute summaries / side effects / reaching
  /// decompositions only for the dirty set (new clones, retargeted
  /// callers, and their closures along ACG edges) instead of re-running
  /// all of IPA. Results are identical either way; set to false to force
  /// full recomputation every round (tests compare the two).
  bool incremental = true;
};

/// What one cloning pass changed — the seed of the incremental dirty sets.
struct CloneDelta {
  /// Clone names, in creation order.
  std::vector<std::string> new_clones;
  /// Procedures with at least one call site retargeted to a clone (their
  /// bodies changed: `s.callee` was rewritten).
  std::set<std::string> retargeted_callers;
  /// Originals that lost call sites to their clones (their Reaching sets
  /// may shrink).
  std::set<std::string> cloned_origins;
};

/// Counters of the IPA phase (copied into CompilerStats by the driver).
struct IpaStats {
  int rounds = 0;              // cloning fixed-point iterations
  int rounds_incremental = 0;  // rounds that used dirty-set recomputation
  int summaries_computed = 0;  // ran compute_summary
  int summaries_cached = 0;    // rehydrated from the IpaSummaryCache
  int summaries_reused = 0;    // carried over unchanged between rounds
  int effects_reused = 0;      // side-effect entries carried over
  int reaching_reused = 0;     // reaching entries carried over
  /// Work-stealing scheduler counters summed over the propagation
  /// passes and every cloning round.
  TaskGraphStats sched;
};

/// Everything the interprocedural propagation phase produces; the input
/// to interprocedural code generation.
struct IpaContext {
  AugmentedCallGraph acg;
  std::map<std::string, ProcSummary> summaries;
  SideEffects effects;
  ReachingDecomps reaching;
  /// May-alias pairs per procedure (§6.4), recomputed every round from
  /// the current ACG; widens side effects and splits cloning partitions.
  AliasMap alias;
  /// Procedures whose decomposition conflicts could not be cloned away.
  std::set<std::string> runtime_fallback;
  /// clone name -> original name.
  std::map<std::string, std::string> clone_origin;
  int clones_created = 0;
  IpaStats stats;
};

/// One cloning pass; returns the number of clones created (the caller
/// must re-run analysis when > 0). Populates `ctx.runtime_fallback` when
/// the growth threshold is hit. `delta`, when non-null, receives the
/// dirty-set seeds of this pass.
int apply_cloning_pass(BoundProgram& program, IpaContext& ctx,
                       const IpaOptions& options, CloneDelta* delta = nullptr);

class ThreadPool;
class IpaSummaryCache;

/// Build the full interprocedural context: ACG + summaries + side effects
/// + reaching decompositions, iterating cloning to a fixed point. With a
/// `pool`, each phase runs in parallel over the ACG (output
/// byte-identical to serial); with a `summary_cache`, unchanged
/// procedures skip local analysis across run_ipa calls.
IpaContext run_ipa(BoundProgram& program, const IpaOptions& options = {},
                   ThreadPool* pool = nullptr,
                   IpaSummaryCache* summary_cache = nullptr);

}  // namespace fortd
