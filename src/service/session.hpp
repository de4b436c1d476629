// Session state of the resident compile daemon (fortdd): what makes a
// warm daemon warm.
//
// SessionCache holds one long-lived Compiler per distinct option set; a
// retained Compiler keeps its CompilationCache, IpaSummaryCache, alias
// maps, and clone sets hot across requests, so a repeat COMPILE of
// unchanged source parses it again but computes 0 summaries and
// regenerates 0 procedures. Every session layers over one shared
// ContentStore, so a restarted daemon is still warm from disk — the
// session tier only removes the deserialize/rehash work the disk tier
// cannot.
//
// The cache is LRU-bounded by session count. Eviction hands out
// shared_ptrs, so a session can be evicted while a request still
// compiles inside it — the storage lives until the request finishes,
// only the cache slot is reused.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>

#include "driver/compiler.hpp"
#include "remote/protocol.hpp"

namespace fortd::service {

/// One resident Compiler and the lock that serializes compiles through
/// it (a Compiler's caches are mutated by compile(), so one request at a
/// time per session; different sessions compile concurrently).
struct Session {
  std::mutex mu;
  Compiler compiler;
  explicit Session(const CodegenOptions& o, const IpaOptions& i,
                   const LintOptions& l)
      : compiler(o, i, l) {}
};

/// Keyed, LRU-bounded pool of Sessions. Thread-safe.
class SessionCache {
 public:
  /// Every created Compiler compiles with `jobs` workers drawn from the
  /// shared `pool` and layers over the shared `store` when set (neither
  /// owned).
  SessionCache(size_t max_sessions, int jobs, ThreadPool* pool,
               ContentStore* store);

  /// The session for this option set, created on first use. The returned
  /// shared_ptr keeps the session alive across LRU eviction.
  std::shared_ptr<Session> acquire(const remote::CompileOptionsWire& copts);

  struct Counters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t sessions = 0;  // current
  };
  Counters counters() const;

 private:
  /// All output-relevant wire options packed into one key.
  static uint64_t key_of(const remote::CompileOptionsWire& copts);

  size_t max_sessions_;
  int jobs_;
  ThreadPool* pool_;
  ContentStore* store_;

  mutable std::mutex mu_;
  std::list<uint64_t> lru_;  // front = most recently used
  std::map<uint64_t, std::pair<std::shared_ptr<Session>,
                               std::list<uint64_t>::iterator>>
      sessions_;
  Counters counters_;
};

}  // namespace fortd::service
