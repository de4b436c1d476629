// Recompilation analysis (§4/§8): preserve the benefits of separate
// compilation by recompiling, after an edit, only the procedures whose
// own source changed or whose *interprocedural inputs* changed — not the
// whole program.
//
// The procedure cache (driver/compilation_cache.hpp) is the one place the
// test is decided: a procedure is regenerated exactly when its digest
// misses, and CompileResult::regenerated names it. This header supplies
// the digest's interprocedural part — every fact code generation consumes
// for a procedure: Reaching(P), overlap estimates, the interface summary
// (GMOD/GREF, def/use sections) of each callee, run-time fallback status
// and the may-alias pairs. Editing a callee in a way that leaves its
// interface summary unchanged therefore does not recompile its callers.
#pragma once

#include <cstdint>
#include <string>

#include "ipa/cloning.hpp"
#include "ipa/overlap_prop.hpp"

namespace fortd {

class BinaryWriter;

/// Write the §8 recompilation-test inputs of `proc` with the artifact
/// codecs' writers. Pure function of the canonical IPA solution, so
/// schedule- and jobs-invariant.
void write_codegen_inputs(BinaryWriter& w, const std::string& proc,
                          const IpaContext& ctx,
                          const OverlapEstimates& overlaps);

/// fnv1a over the bytes write_codegen_inputs writes.
uint64_t hash_codegen_inputs(const std::string& proc, const IpaContext& ctx,
                             const OverlapEstimates& overlaps);

}  // namespace fortd
