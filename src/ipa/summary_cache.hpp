// A content-addressed cache of per-procedure summaries, the IPA analogue
// of the codegen CompilationCache: §8's observation is that local analysis
// is a pure function of the procedure text, so its result can be keyed by
// the procedure digest (`hash_procedure`: fnv1a over the bytes
// write_procedure writes, source positions excluded) and reused across
// compile() calls whenever the procedure is unchanged.
//
// ProcSummary holds `const Stmt*` pointers into the AST it was computed
// from (distribute_stmts, local_reaching[].call_stmt), which dangle for
// any later AST. Entries therefore store those pointers as *pre-order
// statement indices* (the deterministic walk_stmts order) and lookup()
// rehydrates them against the current procedure body; a statement-count
// mismatch rejects the entry.
// With a ContentStore attached (Compiler with CacheOptions.dir set) the
// cache is two-tier: memory misses consult the persistent compilation
// database (artifact kind "summary", keyed by the same hash_procedure
// digest), and inserts write through — so local analysis survives across
// compiler processes, not just compile() calls.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "ipa/summaries.hpp"
#include "support/serialize.hpp"

namespace fortd {

class ContentStore;

/// Artifact kind of the persistent tier (artifact_format_hash stamps it).
extern const char kSummaryArtifactKind[];

/// Codec of per-array overlap offsets (ProcSummary::overlaps, and the
/// overlap estimates the §8 digest covers).
void write_overlap_map(BinaryWriter& w,
                       const std::map<std::string, OverlapOffsets>& m);
std::map<std::string, OverlapOffsets> read_overlap_map(BinaryReader& r);

class IpaSummaryCache {
public:
  /// Attach the persistent second tier (may be null to detach). Not
  /// thread-safe against concurrent lookups — call before compiling.
  void attach_store(ContentStore* store) { store_ = store; }

  /// Return the cached summary for `hash`, rehydrated against `proc`'s
  /// statements, or nullopt on miss. Thread-safe.
  std::optional<ProcSummary> lookup(uint64_t hash, const Procedure& proc);

  /// Store `summary` (computed from `proc`) under `hash`. Thread-safe.
  void insert(uint64_t hash, const Procedure& proc, const ProcSummary& summary);

  uint64_t hits() const;
  uint64_t misses() const;
  size_t size() const;

private:
  struct Entry {
    ProcSummary summary;  // Stmt pointers nulled; see indices below
    std::vector<size_t> distribute_idx;
    std::vector<size_t> call_idx;  // one per local_reaching entry
    size_t stmt_count = 0;
  };

  static std::vector<uint8_t> serialize_entry(const Entry& entry);
  static std::optional<Entry> deserialize_entry(
      const std::vector<uint8_t>& payload);

  /// Entry for `hash` from memory or disk (promoting a disk hit into the
  /// memory tier); accounts the miss when neither tier has it.
  std::optional<Entry> fetch(uint64_t hash);

  mutable std::mutex mu_;
  std::map<uint64_t, Entry> entries_;
  ContentStore* store_ = nullptr;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace fortd
