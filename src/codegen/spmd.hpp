// The result of Fortran D code generation: an SPMD program (one AST
// executed by every processor, with explicit message passing), per-array
// storage information, and compile-time statistics used by the paper's
// ablation benchmarks.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "codegen/options.hpp"
#include "frontend/ast.hpp"
#include "ir/decomp.hpp"

namespace fortd {

/// Storage management result for one array in one procedure (§5.6).
struct ArrayStorageInfo {
  std::string array;
  DecompSpec spec;
  int dist_dim = -1;         // -1 replicated
  int64_t local_extent = 0;  // max owned elements along the distributed dim
  int64_t other_extent = 1;  // product of non-distributed extents
  int64_t overlap_lo = 0;    // actual overlap demand used (elements)
  int64_t overlap_hi = 0;
  int64_t est_lo = 0;  // interprocedural estimate (Fig. 13)
  int64_t est_hi = 0;
  bool used_buffer = false;      // actual exceeded estimate
  bool parameterized = false;    // Fig. 14 parameterized overlap emitted

  /// Per-processor words this array occupies under overlaps.
  int64_t local_words() const {
    return (local_extent + overlap_lo + overlap_hi) * other_extent;
  }
};

/// Compile-time counters reported by the ablation benchmarks.
struct CompileStats {
  int clones_created = 0;
  int vectorized_messages = 0;    // messages hoisted above >= 1 loop
  int delayed_comms_exported = 0; // pending comms passed to callers
  int delayed_comms_absorbed = 0; // pending comms instantiated in a caller
  int delayed_iter_sets_exported = 0;
  int loops_bounds_reduced = 0;
  int guards_inserted = 0;
  int scalar_broadcasts = 0;
  int runtime_resolved_stmts = 0;
  int remaps_inserted = 0;
  int remaps_eliminated_dead = 0;
  int remaps_coalesced = 0;
  int remaps_hoisted = 0;
  int remaps_marked_in_place = 0;  // array-kill optimization
  int buffers_used = 0;
};

/// A compiled SPMD program, ready for the machine simulator or the
/// pretty-printer.
struct SpmdProgram {
  SourceProgram ast;
  CodegenOptions options;
  /// Per procedure, per array: storage layout decisions.
  std::map<std::string, std::vector<ArrayStorageInfo>> storage;
  CompileStats stats;

  const Procedure* main() const {
    for (const auto& p : ast.procedures)
      if (p->is_program) return p.get();
    return nullptr;
  }
};

}  // namespace fortd
