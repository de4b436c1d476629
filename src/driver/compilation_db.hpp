// Persistent content-addressed compilation database (§8 across
// processes).
//
// The in-memory CompilationCache (generated SPMD procedures) and
// IpaSummaryCache (local analysis summaries) are thin first tiers over
// this ContentStore: artifacts are keyed by (kind, content digest) and
// live as individual blob files under
//
//   <dir>/<kind>/<16-hex-digit digest>
//
// so a *second compiler process* on an unchanged program finds every
// digest it computes already on disk and skips the corresponding work —
// the separate-compilation discipline the paper's recompilation analysis
// promises, realized with a build-database layout.
//
// Robustness contract:
//   * every blob carries an envelope (magic, format hash, digest, payload
//     size, payload checksum); any mismatch — truncation, bit flip,
//     version skew — makes load() return nullopt, count a corruption, and
//     quarantine (delete) the file so the slot is rewritten cleanly,
//   * writes are buffered in memory and flushed off the compilation hot
//     path (Compiler calls flush() once per compile()), each blob landing
//     via write-to-temp + atomic rename,
//   * an index file records per-artifact LRU ticks; when the store
//     exceeds max_bytes at flush time, least-recently-used artifacts are
//     evicted (their blob files deleted) until the bound holds.
//
// The payload inside the envelope is LZ-compressed
// (support/compress.hpp).
//
// All operations are thread-safe and never throw past the store boundary:
// I/O errors degrade to misses (reads) or dropped writes.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace fortd {

/// Driver-level knobs for the persistent tier (fortdc -cache-dir,
/// -cache-max-bytes). An empty dir leaves the caches purely in-memory.
struct CacheOptions {
  std::string dir;                       // empty = no disk tier
  uint64_t max_bytes = 256ull << 20;     // LRU GC bound (0 = unbounded)
};

/// The format stamp of artifact kind `kind`: fnv1a over the kind and the
/// serialize and compress format versions, so a codec change turns every
/// blob of the old layout stale.
uint64_t artifact_format_hash(const std::string& kind);

/// Build the FDCA on-disk envelope around `payload`:
///   magic | format_hash | digest | comp_size | raw_size |
///   LZ(payload) | fnv1a(LZ(payload))
/// (fixed-width little-endian integers so truncation checks are trivial).
std::vector<uint8_t> make_blob_envelope(uint64_t format_hash, uint64_t digest,
                                        const std::vector<uint8_t>& payload);

/// Validate an envelope against the expected key and return the
/// decompressed payload; nullopt on any mismatch — bad magic, wrong
/// format hash, wrong digest, truncated or padded blob, checksum
/// failure, or a payload that does not decompress to its declared size.
std::optional<std::vector<uint8_t>> open_blob_envelope(
    const std::vector<uint8_t>& blob, uint64_t format_hash, uint64_t digest);

class ContentStore {
public:
  explicit ContentStore(CacheOptions options);
  ~ContentStore();  // flush()es pending writes and the index

  ContentStore(const ContentStore&) = delete;
  ContentStore& operator=(const ContentStore&) = delete;

  const CacheOptions& options() const { return options_; }

  /// The payload stored under (kind, digest), or nullopt on miss or on a
  /// corrupt/truncated/version-skewed blob (counted + quarantined).
  /// `format_hash` is the artifact codec's version stamp; a mismatch is
  /// treated as corruption (stale format), not a plain miss.
  std::optional<std::vector<uint8_t>> load(const std::string& kind,
                                           uint64_t format_hash,
                                           uint64_t digest);

  /// Buffer `payload` for persistence under (kind, digest). The blob
  /// reaches disk at the next flush(); load() sees it immediately.
  void store(const std::string& kind, uint64_t format_hash, uint64_t digest,
             std::vector<uint8_t> payload);

  /// Report (kind, digest) as undecodable at a layer above the envelope
  /// (payload deserialization failure): count + quarantine, as if the
  /// envelope check had failed.
  void mark_corrupt(const std::string& kind, uint64_t digest);

  /// Write pending blobs and the index to disk, then enforce max_bytes by
  /// LRU eviction.
  void flush();

  /// Delete every artifact and the index (fortdc -cache-clear).
  void clear();

  struct Counters {
    uint64_t hits = 0;         // load() served from disk or pending buffer
    uint64_t misses = 0;       // absent artifacts (corrupt loads also miss)
    uint64_t writes = 0;       // blobs flushed to disk
    uint64_t evictions = 0;    // blobs removed by LRU GC
    uint64_t corrupt = 0;      // envelope/codec validation failures
  };
  Counters counters() const;

  /// Artifacts currently known (on disk + pending).
  size_t size() const;

  static std::string hex_digest(uint64_t digest);

  /// True iff `kind` is safe to embed in a blob path: non-empty, at most
  /// 64 chars, only [A-Za-z0-9_.-], and not "." or "..". Everything else
  /// — in particular anything containing '/' — is rejected before a path
  /// is ever built from it, so no caller can steer reads/writes/deletes
  /// outside the cache directory. Invalid kinds read as misses and store
  /// as dropped writes.
  static bool valid_kind(const std::string& kind);

private:
  struct Entry {
    uint64_t size = 0;  // blob file size in bytes
    uint64_t tick = 0;  // LRU clock value of the last access
  };
  using Key = std::pair<std::string, uint64_t>;  // (kind, digest)

  std::string blob_path(const std::string& kind, uint64_t digest) const;
  std::string index_path() const;
  void load_index_locked();
  void quarantine_locked(const std::string& kind, uint64_t digest);
  /// Pending buffer, then disk: the validated enveloped blob, or nullopt.
  /// Counts corruption but neither hits nor misses.
  std::optional<std::vector<uint8_t>> local_blob_locked(
      const std::string& kind, uint64_t format_hash, uint64_t digest);

  mutable std::mutex mu_;
  CacheOptions options_;
  std::map<Key, Entry> index_;
  std::map<Key, std::vector<uint8_t>> pending_;  // enveloped blobs
  uint64_t next_tick_ = 1;
  Counters counters_;
  bool index_dirty_ = false;
};

}  // namespace fortd
