// Content-hashed procedure cache for interprocedural code generation.
//
// The paper's §8 recompilation tests decide, after an edit, which
// procedures must be *recompiled*; this cache is where that decision is
// made. Generated SPMD procedures are keyed by procedure_digest, fnv1a
// over one writer pass (source positions off) of every input their
// generation consumed —
//   * the procedure digest (hash_procedure: the bytes write_procedure
//     writes),
//   * write_codegen_inputs: Reaching(P), overlap estimates, callee
//     interface summaries, run-time fallback status, may-alias pairs,
//   * the option fields that shape the code (not jobs), and
//   * per call site, the callee's name, its exports (delayed comms,
//     iteration sets, decomposition summary sets) and formal names,
//     available before a caller is scheduled because generation proceeds
//     callees-first.
// The codecs write every count, presence flag and field, so no field can
// drop out of a key. A second compile() of a program in which k
// procedures changed therefore regenerates only those k and the callers
// whose inputs actually changed (CompileResult::regenerated) — everything
// else is a hit and its cached SPMD AST is cloned into the result.
// When a ContentStore is attached (Compiler with CacheOptions.dir set),
// the cache becomes a two-tier structure: memory misses consult the
// persistent compilation database (artifact kind "proc"), and inserts
// write through, so a *separate compiler process* sharing the cache
// directory inherits every generated procedure whose digest matches.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "codegen/codegen.hpp"

namespace fortd {

class ContentStore;

/// Everything one procedure contributes to a compiled SpmdProgram.
struct CachedProcedure {
  std::shared_ptr<const Procedure> compiled;  // generated SPMD body
  ProcExports exports;
  std::vector<ArrayStorageInfo> storage;
  CompileStats stats;  // this procedure's contribution to the counters
};

/// The cache key for one procedure (see the header comment).
/// `callee_exports` must hold entries for all of the procedure's callees
/// (guaranteed when callees are generated first).
uint64_t procedure_digest(const Procedure& proc, const BoundProgram& program,
                          const IpaContext& ipa,
                          const OverlapEstimates& overlaps,
                          const CodegenOptions& options,
                          const std::map<std::string, ProcExports>& callee_exports);

/// Artifact codec for the persistent tier. The payload is a field-exact
/// binary encoding of CachedProcedure (SPMD body, exports, storage,
/// stats); deserialize returns nullopt on any malformed payload.
extern const char kProcArtifactKind[];
std::vector<uint8_t> serialize_cached_procedure(const CachedProcedure& entry);
std::optional<CachedProcedure> deserialize_cached_procedure(
    const std::vector<uint8_t>& payload);

class CompilationCache {
public:
  /// Attach the persistent second tier (may be null to detach). Not
  /// thread-safe against concurrent lookups — call before compiling.
  void attach_store(ContentStore* store) { store_ = store; }

  /// nullptr on miss in both tiers; the entry stays owned by the cache.
  /// A disk-tier hit is promoted into the memory tier and counted as a
  /// hit here (the store keeps its own counters).
  std::shared_ptr<const CachedProcedure> lookup(uint64_t digest);
  void insert(uint64_t digest, CachedProcedure entry);

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  size_t size() const;

private:
  mutable std::mutex mu_;
  std::map<uint64_t, std::shared_ptr<const CachedProcedure>> entries_;
  ContentStore* store_ = nullptr;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace fortd
