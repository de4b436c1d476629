// Persistent content-addressed compilation database (§8 across
// processes). The in-memory CompilationCache and IpaSummaryCache are thin
// first tiers over this ContentStore: artifacts keyed by (kind, content
// digest) live as records of one append-only file, `<dir>/pack`, so a
// second compiler process on an unchanged program skips all the work.
//
// A record is a one-byte kind length, the kind, and an envelope (magic,
// format hash, digest, size, payload, checksum). Opening the store scans
// the record headers once; a later record with the same key wins. A key
// the index lacks makes the store index what other stores appended since
// its last scan, or the pack another store's rewrite put in its place, at
// most once between two flushes. A load
// that fails validation reads as a miss, counts a corruption and drops
// the record from the index; the compiler then stores it afresh. Writes
// wait for flush() (once per compile), which appends them in one batch or
// rewrites the pack (docs/INTERNALS.md, "The persistent compilation
// database"). An advisory lock on the pack lets stores in several threads
// or processes share a directory. Nothing throws past the store: I/O
// errors degrade to misses or dropped writes.
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
  uint64_t max_bytes = 256ull << 20;     // pack size bound (0 = unbounded)
};

/// The format stamp of artifact kind `kind`: fnv1a over the kind and the
/// serialize format version, so a codec change turns old records stale.
uint64_t artifact_format_hash(const std::string& kind);

/// The FDCA envelope around `payload`:
///   magic | format_hash | digest | size | payload | checksum
/// with fixed-width little-endian integers and a checksum over every byte
/// before it.
std::vector<uint8_t> make_blob_envelope(uint64_t format_hash, uint64_t digest,
                                        const std::vector<uint8_t>& payload);

/// The payload of an envelope made for (format_hash, digest); nullopt on
/// any mismatch — bad magic, wrong format hash or digest, truncated or
/// padded blob, or checksum failure.
std::optional<std::vector<uint8_t>> open_blob_envelope(
    const std::vector<uint8_t>& blob, uint64_t format_hash, uint64_t digest);

class ContentStore {
public:
  explicit ContentStore(CacheOptions options);
  ~ContentStore();  // flush()es pending writes

  ContentStore(const ContentStore&) = delete;
  ContentStore& operator=(const ContentStore&) = delete;

  const CacheOptions& options() const { return options_; }

  /// The payload stored under (kind, digest), or nullopt on a miss or a
  /// corrupt record. `format_hash` is the artifact codec's version stamp;
  /// a mismatch is corruption (stale format), not a plain miss. The first
  /// key since the last flush() that neither the index nor the pending
  /// writes hold costs one fstat and one stat, and a scan of the records
  /// appended since the last scan when the pack grew, or of the whole
  /// pack when another store's rewrite replaced it.
  std::optional<std::vector<uint8_t>> load(const std::string& kind,
                                           uint64_t format_hash,
                                           uint64_t digest);

  /// Buffer `payload` under (kind, digest) until the next flush();
  /// load() sees it at once.
  void store(const std::string& kind, uint64_t format_hash, uint64_t digest,
             std::vector<uint8_t> payload);

  /// Report (kind, digest) as undecodable above the envelope: count and
  /// drop it, as if the envelope check had failed.
  void mark_corrupt(const std::string& kind, uint64_t digest);

  /// Append the pending records to the pack, or rewrite it when it would
  /// pass max_bytes or holds a torn record. A rewrite keeps the records
  /// this store loaded or stored, most recent first, within max_bytes,
  /// then the newest of the rest within max_bytes/2.
  void flush();

  /// Empty the pack (fortdc -cache-clear).
  void clear();

  struct Counters {
    uint64_t hits = 0;       // load() served from the pack or pending
    uint64_t misses = 0;     // absent artifacts (corrupt loads also miss)
    uint64_t writes = 0;     // records flushed to the pack
    uint64_t evictions = 0;  // records a rewrite left out
    uint64_t corrupt = 0;    // envelope, codec or framing failures
  };
  Counters counters() const;

  /// Artifacts currently known (in the pack + pending).
  size_t size() const;

  /// True iff `kind` can name a record: 1..64 chars of [A-Za-z0-9_.-],
  /// not "." or "..". Invalid kinds read as misses and drop their writes.
  static bool valid_kind(const std::string& kind);

private:
  using Key = std::pair<std::string, uint64_t>;  // (kind, digest)
  struct Entry {
    uint64_t offset = 0;  // of the record in the pack
    uint64_t size = 0;    // of the record: kind framing + envelope
    uint64_t tick = 0;    // last load or store by this store; 0 = unused
  };
  struct Pending {
    std::vector<uint8_t> record;
    uint64_t tick = 0;
  };
  struct Kept {  // a record a rewrite carries over
    const Key* key;
    Entry entry;
    const std::vector<uint8_t>* pending;  // null: copy it from the pack
  };

  /// flock the file `<dir>/pack` names now, reopening and rescanning it
  /// when another store's rewrite replaced the one fd_ holds.
  bool lock_pack_locked(int op);
  /// Index the records from scanned_end_ to the end of the file.
  void scan_locked();
  /// scan_locked() under the shared lock when the pack grew or was
  /// replaced, once between two flushes.
  void catch_up_locked();
  void append_locked();
  void rewrite_locked();
  /// Write `kept` to a new file renamed over the pack; fd_ then holds it,
  /// locked.
  bool replace_pack_locked(const std::vector<Kept>& kept);

  mutable std::mutex mu_;
  CacheOptions options_;
  int fd_ = -1;               // the pack, O_RDWR | O_APPEND
  uint64_t scanned_end_ = 0;  // pack bytes the index covers
  bool torn_ = false;         // the scan stopped before the end of file
  bool caught_up_ = false;    // catch_up_locked() ran since the last flush
  std::map<Key, Entry> index_;
  std::map<Key, Pending> pending_;
  uint64_t next_tick_ = 1;
  Counters counters_;
};

}  // namespace fortd
