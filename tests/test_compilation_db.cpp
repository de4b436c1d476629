// The persistent content-addressed compilation database:
//   * BinaryWriter/BinaryReader round trips and stream-failure semantics,
//   * the LZ codec under the blob envelope,
//   * ContentStore blob lifecycle — store/flush/load across instances,
//     byte-exact payloads, atomic layout, LRU eviction, clear(), kind
//     validation and traversal kinds, mark_corrupt, the inert store
//     without a directory, and a multi-threaded soak,
//   * corruption robustness — truncation, bit flips, and version skew all
//     degrade to a silent full recompile with the corrupt counter bumped
//     and the damaged blob quarantined,
//   * two-process recompilation — a *fresh Compiler* pointed at a
//     populated cache directory generates 0 procedures and computes 0
//     summaries on an unchanged program, and regenerates exactly the one
//     edited procedure after a 1-of-N edit,
//   * golden digest stability — two independent compiler constructions
//     produce identical artifact digests and identical blob bytes,
//   * cold-vs-warm byte identity for jobs=1 and jobs=4,
//   * CompilerStats surviving a CompileError (the -timings analogue of
//     last_lint_report()), and -cache-stats-json naming every tier.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <thread>

#include "../bench/programs.hpp"
#include "cache_dir.hpp"
#include "codegen/spmd_printer.hpp"
#include "driver/compilation_db.hpp"
#include "driver/compiler.hpp"
#include "support/compress.hpp"
#include "support/serialize.hpp"

namespace fs = std::filesystem;

namespace fortd {
namespace {

using test::fresh_cache_dir;

std::vector<uint8_t> bytes_of(std::initializer_list<int> xs) {
  std::vector<uint8_t> v;
  for (int x : xs) v.push_back(static_cast<uint8_t>(x));
  return v;
}

std::vector<uint8_t> slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

void spit(const fs::path& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// All blob files under `dir`, as "kind/hexdigest" relative paths.
std::set<std::string> blob_listing(const std::string& dir) {
  std::set<std::string> out;
  for (const auto& kind_dir : fs::directory_iterator(dir)) {
    if (!kind_dir.is_directory()) continue;
    for (const auto& file : fs::directory_iterator(kind_dir.path()))
      out.insert(kind_dir.path().filename().string() + "/" +
                 file.path().filename().string());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Serialization primitives
// ---------------------------------------------------------------------------

TEST(Serialize, RoundTripsPrimitives) {
  BinaryWriter w;
  w.u64(0);
  w.u64(127);
  w.u64(128);
  w.u64(~0ull);
  w.i64(-1);
  w.i64(INT64_MIN);
  w.i64(INT64_MAX);
  w.boolean(true);
  w.boolean(false);
  w.f64(-0.125);
  w.str("");
  w.str("hello fortran d");
  w.count(3);  // counts must be followed by their elements (see count())
  for (int x : {10, 20, 30}) w.u8(static_cast<uint8_t>(x));

  BinaryReader r(w.bytes());
  EXPECT_EQ(r.u64(), 0u);
  EXPECT_EQ(r.u64(), 127u);
  EXPECT_EQ(r.u64(), 128u);
  EXPECT_EQ(r.u64(), ~0ull);
  EXPECT_EQ(r.i64(), -1);
  EXPECT_EQ(r.i64(), INT64_MIN);
  EXPECT_EQ(r.i64(), INT64_MAX);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.f64(), -0.125);
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), "hello fortran d");
  EXPECT_EQ(r.count(), 3u);
  EXPECT_EQ(r.u8(), 10);
  EXPECT_EQ(r.u8(), 20);
  EXPECT_EQ(r.u8(), 30);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST(Serialize, TruncationSetsStickyFailBit) {
  BinaryWriter w;
  w.str("a long enough string to truncate");
  std::vector<uint8_t> bytes = w.take();
  bytes.resize(bytes.size() / 2);

  BinaryReader r(bytes);
  (void)r.str();
  EXPECT_FALSE(r.ok());
  // Sticky: later reads keep failing and return zero values.
  EXPECT_EQ(r.u64(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(Serialize, ImplausibleCountFails) {
  // A count claiming more elements than remaining bytes is corruption by
  // construction — it must fail instead of driving a huge reserve() loop.
  BinaryWriter w;
  w.count(1u << 30);
  BinaryReader r(w.bytes());
  EXPECT_EQ(r.count(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(Serialize, OverlongVarintFails) {
  // 11 continuation bytes cannot encode a uint64 value.
  std::vector<uint8_t> bytes(11, 0xff);
  BinaryReader r(bytes);
  (void)r.u64();
  EXPECT_FALSE(r.ok());
}

// ---------------------------------------------------------------------------
// Compression codec
// ---------------------------------------------------------------------------

TEST(Compress, RoundTripsRepetitiveAndShrinksIt) {
  std::vector<uint8_t> raw;
  for (int i = 0; i < 10000; ++i)
    raw.push_back(static_cast<uint8_t>("abcdabcdabcd"[i % 12]));
  std::vector<uint8_t> comp = compress_bytes(raw);
  EXPECT_LT(comp.size(), raw.size() / 4)
      << "repetitive data must compress well";
  auto back = decompress_bytes(comp);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, raw);
}

TEST(Compress, RoundTripsIncompressibleViaStoredMode) {
  // A deterministic pseudorandom buffer defeats the matcher; the codec
  // must fall back to stored mode and cost only the small header.
  std::vector<uint8_t> raw;
  uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 4096; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    raw.push_back(static_cast<uint8_t>(x));
  }
  std::vector<uint8_t> comp = compress_bytes(raw);
  EXPECT_LE(comp.size(), raw.size() + 8);
  auto back = decompress_bytes(comp);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, raw);
}

TEST(Compress, RoundTripsEmptyAndTiny) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{3}}) {
    std::vector<uint8_t> raw(n, 0x5a);
    auto back = decompress_bytes(compress_bytes(raw));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, raw);
  }
}

TEST(Compress, EnvelopePayloadsAreCompressed) {
  std::vector<uint8_t> payload(8192, 7);  // maximally repetitive
  std::vector<uint8_t> blob = make_blob_envelope(1, 2, payload);
  EXPECT_LT(blob.size(), payload.size() / 8);
  auto back = open_blob_envelope(blob, 1, 2);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, payload);
}

// ---------------------------------------------------------------------------
// ContentStore blob lifecycle
// ---------------------------------------------------------------------------

TEST(ContentStore, PendingBlobIsVisibleBeforeFlush) {
  ContentStore store({fresh_cache_dir("pending")});
  store.store("proc", 7, 42, bytes_of({1, 2, 3}));
  auto got = store.load("proc", 7, 42);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, bytes_of({1, 2, 3}));
  // Not yet on disk: the write is buffered off the hot path.
  EXPECT_FALSE(fs::exists(fs::path(store.options().dir) / "proc"));
}

TEST(ContentStore, FlushedBlobSurvivesIntoANewInstance) {
  std::string dir = fresh_cache_dir("survive");
  {
    ContentStore store({dir});
    store.store("proc", 7, 42, bytes_of({9, 8, 7}));
    store.store("summary", 11, 43, bytes_of({4, 5}));
  }  // destructor flushes
  EXPECT_TRUE(fs::exists(fs::path(dir) / "proc" /
                         ContentStore::hex_digest(42)));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "index"));

  ContentStore reopened({dir});
  EXPECT_EQ(reopened.size(), 2u);
  auto got = reopened.load("proc", 7, 42);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, bytes_of({9, 8, 7}));
  got = reopened.load("summary", 11, 43);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, bytes_of({4, 5}));
  EXPECT_EQ(reopened.counters().hits, 2u);
}

TEST(ContentStore, MissesAreCounted) {
  ContentStore store({fresh_cache_dir("miss")});
  EXPECT_FALSE(store.load("proc", 7, 99).has_value());
  EXPECT_EQ(store.counters().misses, 1u);
  EXPECT_EQ(store.counters().hits, 0u);
}

TEST(ContentStore, TruncatedBlobIsCorruptAndQuarantined) {
  std::string dir = fresh_cache_dir("truncate");
  {
    ContentStore store({dir});
    store.store("proc", 7, 42, std::vector<uint8_t>(64, 0xab));
  }
  fs::path blob = fs::path(dir) / "proc" / ContentStore::hex_digest(42);
  std::vector<uint8_t> bytes = slurp(blob);
  bytes.resize(bytes.size() / 2);
  spit(blob, bytes);

  ContentStore store({dir});
  EXPECT_FALSE(store.load("proc", 7, 42).has_value());
  EXPECT_EQ(store.counters().corrupt, 1u);
  EXPECT_EQ(store.counters().misses, 1u);
  EXPECT_FALSE(fs::exists(blob)) << "corrupt blob must be quarantined";
  // The slot accepts a clean rewrite.
  store.store("proc", 7, 42, bytes_of({1}));
  store.flush();
  EXPECT_TRUE(fs::exists(blob));
}

TEST(ContentStore, BitFlippedPayloadFailsTheChecksum) {
  std::string dir = fresh_cache_dir("bitflip");
  {
    ContentStore store({dir});
    store.store("proc", 7, 42, std::vector<uint8_t>(64, 0xab));
  }
  fs::path blob = fs::path(dir) / "proc" / ContentStore::hex_digest(42);
  std::vector<uint8_t> bytes = slurp(blob);
  bytes[bytes.size() / 2] ^= 0x01;  // one bit, somewhere in the payload
  spit(blob, bytes);

  ContentStore store({dir});
  EXPECT_FALSE(store.load("proc", 7, 42).has_value());
  EXPECT_EQ(store.counters().corrupt, 1u);
  EXPECT_FALSE(fs::exists(blob));
}

TEST(ContentStore, FormatHashSkewReadsAsCorruption) {
  // A blob written by an older codec version carries a different format
  // hash; loading it under the current hash must quarantine, not decode.
  std::string dir = fresh_cache_dir("skew");
  {
    ContentStore store({dir});
    store.store("proc", /*format_hash=*/7, 42, bytes_of({1, 2, 3}));
  }
  ContentStore store({dir});
  EXPECT_FALSE(store.load("proc", /*format_hash=*/8, 42).has_value());
  EXPECT_EQ(store.counters().corrupt, 1u);
  EXPECT_FALSE(
      fs::exists(fs::path(dir) / "proc" / ContentStore::hex_digest(42)));
}

TEST(ContentStore, LruEvictionKeepsTheMostRecentlyUsed) {
  std::string dir = fresh_cache_dir("lru");
  CacheOptions opt{dir};
  // Three same-shaped blobs; bound the store to two of them. The on-disk
  // blob size is exactly the envelope size (compression included), so
  // measure it instead of hard-coding codec arithmetic.
  const uint64_t blob_size =
      make_blob_envelope(7, 1, std::vector<uint8_t>(100, 1)).size();
  opt.max_bytes = 2 * blob_size + blob_size / 2;
  ContentStore store(opt);
  store.store("proc", 7, 1, std::vector<uint8_t>(100, 1));
  store.store("proc", 7, 2, std::vector<uint8_t>(100, 2));
  store.flush();
  EXPECT_EQ(store.counters().evictions, 0u);

  // Touch 1 so 2 becomes least recently used, then overflow with 3.
  EXPECT_TRUE(store.load("proc", 7, 1).has_value());
  store.store("proc", 7, 3, std::vector<uint8_t>(100, 3));
  store.flush();
  EXPECT_EQ(store.counters().evictions, 1u);
  EXPECT_TRUE(fs::exists(fs::path(dir) / "proc" / ContentStore::hex_digest(1)));
  EXPECT_FALSE(
      fs::exists(fs::path(dir) / "proc" / ContentStore::hex_digest(2)));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "proc" / ContentStore::hex_digest(3)));
}

TEST(ContentStore, LruTicksSurviveReopen) {
  std::string dir = fresh_cache_dir("lru_reopen");
  {
    ContentStore store({dir});
    store.store("proc", 7, 1, std::vector<uint8_t>(100, 1));
    store.store("proc", 7, 2, std::vector<uint8_t>(100, 2));
    store.flush();
    EXPECT_TRUE(store.load("proc", 7, 1).has_value());  // 1 is now newest
  }
  CacheOptions opt{dir};
  const uint64_t blob_size =
      make_blob_envelope(7, 1, std::vector<uint8_t>(100, 1)).size();
  opt.max_bytes = blob_size + blob_size / 2;  // room for one blob only
  ContentStore store(opt);
  store.store("proc", 7, 3, std::vector<uint8_t>(100, 3));
  store.flush();
  // 2 (oldest tick, recorded in the index file) went first, then 1.
  EXPECT_EQ(store.counters().evictions, 2u);
  EXPECT_TRUE(fs::exists(fs::path(dir) / "proc" / ContentStore::hex_digest(3)));
  EXPECT_FALSE(
      fs::exists(fs::path(dir) / "proc" / ContentStore::hex_digest(2)));
}

TEST(ContentStore, ValidatesKinds) {
  EXPECT_TRUE(ContentStore::valid_kind("proc"));
  EXPECT_TRUE(ContentStore::valid_kind("summary_v2.x-y"));
  EXPECT_FALSE(ContentStore::valid_kind(""));
  EXPECT_FALSE(ContentStore::valid_kind("."));
  EXPECT_FALSE(ContentStore::valid_kind(".."));
  EXPECT_FALSE(ContentStore::valid_kind("a/b"));
  EXPECT_FALSE(ContentStore::valid_kind("../up"));
  EXPECT_FALSE(ContentStore::valid_kind("quote\"kind"));
  EXPECT_FALSE(ContentStore::valid_kind(std::string(65, 'a')));

  const std::string dir = fresh_cache_dir("kind_validation");
  ContentStore store({dir});
  store.store("../up", 11, 7, {1});
  store.store("bad/slash", 11, 8, {2});
  store.flush();
  EXPECT_FALSE(store.load("../up", 11, 7).has_value());
  EXPECT_FALSE(fs::exists(fs::path(dir).parent_path() / "up"));
  EXPECT_FALSE(fs::exists(fs::path(dir) / "bad"));
  EXPECT_EQ(store.counters().writes, 0u) << "hostile kinds are dropped writes";
}

TEST(ContentStore, ClearEmptiesTheStore) {
  std::string dir = fresh_cache_dir("clear");
  ContentStore store({dir});
  store.store("proc", 7, 1, bytes_of({1}));
  store.store("summary", 9, 2, bytes_of({2}));
  store.flush();
  EXPECT_EQ(store.size(), 2u);
  store.clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(fs::exists(fs::path(dir) / "index"));
  EXPECT_FALSE(store.load("proc", 7, 1).has_value());
}

TEST(ContentStore, ForeignFilesInTheDirectoryAreIgnored) {
  std::string dir = fresh_cache_dir("foreign");
  fs::create_directories(fs::path(dir) / "proc");
  spit(fs::path(dir) / "proc" / "not-a-digest", bytes_of({1, 2}));
  spit(fs::path(dir) / "README", bytes_of({3}));
  ContentStore store({dir});
  EXPECT_EQ(store.size(), 0u);
  store.store("proc", 7, 1, bytes_of({9}));
  store.flush();
  EXPECT_TRUE(fs::exists(fs::path(dir) / "proc" / "not-a-digest"));
}

TEST(ContentStore, StoreThenLoadRoundTripsEveryByteValueExactly) {
  // Payloads are opaque bytes: every byte value, a run the compressor
  // shrinks and noise it cannot all survive the envelope and a reopen.
  std::vector<uint8_t> payload;
  for (int i = 0; i < 256; ++i) payload.push_back(static_cast<uint8_t>(i));
  payload.insert(payload.end(), 500, 0x3c);
  std::mt19937 rng(7);
  for (int i = 0; i < 700; ++i) payload.push_back(static_cast<uint8_t>(rng()));

  const std::string dir = fresh_cache_dir("roundtrip");
  {
    ContentStore store({dir});
    store.store("proc", 11, 42, payload);
  }
  ContentStore store({dir});
  auto got = store.load("proc", 11, 42);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  EXPECT_FALSE(store.load("proc", 11, 43).has_value());
  EXPECT_EQ(store.counters().hits, 1u);
  EXPECT_EQ(store.counters().misses, 1u);
  EXPECT_EQ(store.counters().corrupt, 0u);
}

TEST(ContentStore, TraversalKindsNeverTouchTheFilesystem) {
  // A kind becomes a path component, so no store, load or quarantine may
  // follow a hostile one out of the cache directory. A blob-named decoy
  // beside the directory must survive a mark_corrupt aimed at it.
  const fs::path root = fresh_cache_dir("traversal");
  const std::string dir = (root / "store").string();
  const fs::path decoy = root / ContentStore::hex_digest(42);
  spit(decoy, bytes_of({7}));

  ContentStore store({dir});
  const std::vector<std::string> hostile = {"..", ".", "../escaped", "a/b",
                                            "/abs", ""};
  for (const std::string& kind : hostile) {
    store.store(kind, 11, 42, bytes_of({1, 2, 3}));
    EXPECT_FALSE(store.load(kind, 11, 42).has_value()) << kind;
    store.mark_corrupt(kind, 42);
  }
  store.flush();
  EXPECT_TRUE(fs::exists(decoy)) << "a quarantine followed a traversal kind";
  EXPECT_FALSE(fs::exists(root / "escaped"));
  EXPECT_FALSE(fs::exists(fs::path(dir) / "a"));
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.counters().writes, 0u);
  EXPECT_EQ(store.counters().corrupt, 0u);
  EXPECT_EQ(store.counters().misses, hostile.size());
}

TEST(ContentStore, MarkCorruptQuarantinesAFlushedBlob) {
  // A payload the artifact codec cannot decode is reported from above the
  // envelope; its slot must go exactly as a failed checksum's would, and
  // its neighbours must stay.
  const std::string dir = fresh_cache_dir("mark_corrupt");
  ContentStore store({dir});
  store.store("proc", 7, 42, bytes_of({1, 2, 3}));
  store.store("proc", 7, 43, bytes_of({4}));
  store.flush();
  const fs::path blob = fs::path(dir) / "proc" / ContentStore::hex_digest(42);
  ASSERT_TRUE(fs::exists(blob));

  store.mark_corrupt("proc", 42);
  EXPECT_FALSE(fs::exists(blob));
  EXPECT_EQ(store.counters().corrupt, 1u);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_FALSE(store.load("proc", 7, 42).has_value());
  EXPECT_TRUE(store.load("proc", 7, 43).has_value());
  store.flush();

  ContentStore reopened({dir});
  EXPECT_EQ(reopened.size(), 1u);
  EXPECT_FALSE(reopened.load("proc", 7, 42).has_value());
}

TEST(ContentStore, MarkCorruptDropsAPendingWrite) {
  const std::string dir = fresh_cache_dir("mark_pending");
  ContentStore store({dir});
  store.store("summary", 9, 5, bytes_of({5, 5}));
  store.mark_corrupt("summary", 5);
  EXPECT_FALSE(store.load("summary", 9, 5).has_value());
  store.flush();
  EXPECT_EQ(store.counters().writes, 0u);
  EXPECT_FALSE(
      fs::exists(fs::path(dir) / "summary" / ContentStore::hex_digest(5)));
  EXPECT_EQ(store.size(), 0u);
}

TEST(ContentStore, SameDigestUnderTwoKindsAreDistinctArtifacts) {
  // Keys are (kind, digest): a procedure and a summary that share a
  // digest must never read, or quarantine, each other's payload.
  const std::string dir = fresh_cache_dir("two_kinds");
  {
    ContentStore store({dir});
    store.store("proc", 7, 42, bytes_of({1}));
    store.store("summary", 7, 42, bytes_of({2, 2}));
  }
  ContentStore store({dir});
  EXPECT_EQ(store.size(), 2u);
  auto proc = store.load("proc", 7, 42);
  auto summary = store.load("summary", 7, 42);
  ASSERT_TRUE(proc.has_value());
  ASSERT_TRUE(summary.has_value());
  EXPECT_EQ(*proc, bytes_of({1}));
  EXPECT_EQ(*summary, bytes_of({2, 2}));

  store.mark_corrupt("proc", 42);
  EXPECT_FALSE(store.load("proc", 7, 42).has_value());
  EXPECT_TRUE(store.load("summary", 7, 42).has_value());
}

TEST(ContentStore, ZeroMaxBytesNeverEvicts) {
  const std::string dir = fresh_cache_dir("unbounded");
  CacheOptions opt{dir};
  opt.max_bytes = 0;
  ContentStore store(opt);
  for (uint64_t d = 1; d <= 40; ++d)
    store.store("proc", 7, d, std::vector<uint8_t>(2048, static_cast<uint8_t>(d)));
  store.flush();
  EXPECT_EQ(store.counters().writes, 40u);
  EXPECT_EQ(store.counters().evictions, 0u);
  EXPECT_EQ(blob_listing(dir).size(), 40u);
}

TEST(ContentStore, EmptyDirectoryMakesTheStoreInert) {
  // Without -cache-dir the memory tiers run alone. The store takes every
  // call and neither keeps nor writes anything: with an empty directory a
  // blob path would start at the filesystem root.
  ContentStore store(CacheOptions{});
  store.store("proc", 7, 42, bytes_of({1}));
  EXPECT_FALSE(store.load("proc", 7, 42).has_value());
  store.mark_corrupt("proc", 42);
  store.flush();
  store.clear();
  EXPECT_EQ(store.size(), 0u);
  const ContentStore::Counters c = store.counters();
  EXPECT_EQ(c.hits + c.misses + c.writes + c.evictions + c.corrupt, 0u);
}

TEST(ContentStoreSoak, ConcurrentThreadsMixLoadsAndStoresByteIdentically) {
  // Compile workers load and store artifacts from concurrent task-graph
  // nodes. Four threads interleave private writes, read-backs, shared
  // reads and flushes on one store; every read must return exactly the
  // bytes stored (run under FORTD_SANITIZE=thread to vet the locking).
  constexpr int kThreads = 4;
  constexpr int kOps = 40;
  constexpr uint64_t kFormat = 11;
  const auto payload_for = [](uint64_t digest) {
    std::vector<uint8_t> p(64 + digest % 512);
    for (size_t i = 0; i < p.size(); ++i)
      p[i] = static_cast<uint8_t>(digest * 31 + i * 7);
    return p;
  };
  const auto private_digest = [](int t, int i) {
    return 1000 + static_cast<uint64_t>(t) * 100 + static_cast<uint64_t>(i);
  };

  const std::string dir = fresh_cache_dir("store_soak");
  {
    ContentStore seeder({dir});
    for (uint64_t d = 1; d <= 8; ++d)
      seeder.store("proc", kFormat, d, payload_for(d));
  }
  ContentStore store({dir});
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        const uint64_t mine = private_digest(t, i);
        store.store("summary", kFormat, mine, payload_for(mine));
        auto got = store.load("summary", kFormat, mine);
        if (!got || *got != payload_for(mine)) ++failures[t];
        const uint64_t shared = 1 + static_cast<uint64_t>(i) % 8;
        auto s = store.load("proc", kFormat, shared);
        if (!s || *s != payload_for(shared)) ++failures[t];
        if (i % 10 == t) store.flush();
      }
    });
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(failures[t], 0) << "thread " << t;

  store.flush();
  const ContentStore::Counters c = store.counters();
  EXPECT_EQ(c.writes, static_cast<uint64_t>(kThreads * kOps));
  EXPECT_EQ(c.hits, static_cast<uint64_t>(2 * kThreads * kOps));
  EXPECT_EQ(c.misses, 0u);
  EXPECT_EQ(c.corrupt, 0u);

  ContentStore reopened({dir});
  EXPECT_EQ(reopened.size(), static_cast<size_t>(8 + kThreads * kOps));
  for (int t = 0; t < kThreads; ++t)
    for (int i = 0; i < kOps; ++i) {
      auto got = reopened.load("summary", kFormat, private_digest(t, i));
      ASSERT_TRUE(got.has_value()) << t << "/" << i;
      EXPECT_EQ(*got, payload_for(private_digest(t, i)));
    }
}

// ---------------------------------------------------------------------------
// Two-process recompilation (fresh Compiler instances sharing a directory)
// ---------------------------------------------------------------------------

CompileResult compile_with_dir(const std::string& src, const std::string& dir,
                               int jobs = 1) {
  CodegenOptions opt;
  opt.n_procs = 4;
  opt.jobs = jobs;
  Compiler compiler(opt, {}, {}, CacheOptions{dir});
  return compiler.compile_source(src);
}

class TwoProcessRecompilation : public ::testing::TestWithParam<int> {};

TEST_P(TwoProcessRecompilation, UnchangedProgramRecompilesNothing) {
  const int jobs = GetParam();
  const std::string src = bench::fan_out(32, 64);
  std::string dir = fresh_cache_dir("twoproc_j" + std::to_string(jobs));

  // "Process" A: cold, populates the database. 32 leaves + the program.
  CompileResult a = compile_with_dir(src, dir, jobs);
  EXPECT_EQ(a.stats.generated, 33);
  EXPECT_EQ(a.stats.summaries_computed, 33);
  EXPECT_GT(a.stats.disk_misses, 0);

  // "Process" B: a fresh Compiler (empty memory tiers) on the same
  // directory. Zero procedures generated, zero summaries computed.
  CompileResult b = compile_with_dir(src, dir, jobs);
  EXPECT_EQ(b.stats.generated, 0);
  EXPECT_TRUE(b.regenerated.empty());
  EXPECT_EQ(b.stats.summaries_computed, 0);
  EXPECT_EQ(b.stats.summaries_cached, 33);
  EXPECT_GT(b.stats.disk_hits, 0);
  EXPECT_EQ(b.stats.disk_corrupt, 0);
  EXPECT_EQ(print_spmd(b.spmd), print_spmd(a.spmd));
}

TEST_P(TwoProcessRecompilation, OneEditRegeneratesExactlyOne) {
  const int jobs = GetParam();
  std::string dir = fresh_cache_dir("oneedit_j" + std::to_string(jobs));
  compile_with_dir(bench::fan_out(32, 64), dir, jobs);

  // Edit 1 of 32 leaves (same exported interface): a fresh Compiler must
  // regenerate exactly that leaf and re-analyze only it.
  CompileResult c = compile_with_dir(bench::fan_out(32, 64, 3), dir, jobs);
  EXPECT_EQ(c.regenerated, std::vector<std::string>{"leaf3"});
  EXPECT_EQ(c.stats.generated, 1);
  EXPECT_EQ(c.stats.summaries_computed, 1);
  EXPECT_EQ(c.stats.summaries_cached, 32);

  // The warm result is byte-identical to a cold compile of the edited
  // program.
  CodegenOptions opt;
  opt.n_procs = 4;
  opt.jobs = jobs;
  Compiler cold(opt);
  CompileResult d = cold.compile_source(bench::fan_out(32, 64, 3));
  EXPECT_EQ(print_spmd(c.spmd), print_spmd(d.spmd));
}

INSTANTIATE_TEST_SUITE_P(Jobs, TwoProcessRecompilation,
                         ::testing::Values(1, 4),
                         [](const auto& info) {
                           return "jobs" + std::to_string(info.param);
                         });

TEST(TwoProcessRecompilation, WarmDiskOutputMatchesColdAcrossWorkloads) {
  const std::vector<std::pair<const char*, std::string>> workloads = {
      {"fig15", bench::fig15(64, 4)},
      {"dgefa", bench::dgefa(16)},
      {"cloning_hub", bench::cloning_hub(4, 16)}};
  for (const auto& [name, src] : workloads) {
    std::string dir = fresh_cache_dir(std::string("warmcold_") + name);
    CompileResult cold = compile_with_dir(src, dir);
    CompileResult warm = compile_with_dir(src, dir);
    EXPECT_EQ(print_spmd(warm.spmd), print_spmd(cold.spmd)) << name;
    EXPECT_EQ(warm.stats.generated, 0) << name;
    EXPECT_EQ(warm.stats.summaries_computed, 0) << name;
  }
}

// ---------------------------------------------------------------------------
// Golden digest stability
// ---------------------------------------------------------------------------

TEST(GoldenDigests, TwoCompilerConstructionsProduceIdenticalArtifacts) {
  // Any nondeterminism in procedure_digest / hash_procedure (pointer
  // hashing, unordered iteration, uninitialized fields) would show up as
  // differing blob names or bytes between two independent compilations
  // into two separate directories.
  const std::string src = bench::fan_out(8, 64);
  std::string dir_a = fresh_cache_dir("golden_a");
  std::string dir_b = fresh_cache_dir("golden_b");
  compile_with_dir(src, dir_a, /*jobs=*/1);
  compile_with_dir(src, dir_b, /*jobs=*/4);

  std::set<std::string> blobs_a = blob_listing(dir_a);
  EXPECT_EQ(blobs_a, blob_listing(dir_b));
  EXPECT_GE(blobs_a.size(), 18u);  // 9 proc + 9 summary artifacts
  for (const std::string& rel : blobs_a)
    EXPECT_EQ(slurp(fs::path(dir_a) / rel), slurp(fs::path(dir_b) / rel))
        << rel;
}

// ---------------------------------------------------------------------------
// Compiler-level corruption robustness: silent full recompile
// ---------------------------------------------------------------------------

TEST(CompilerCorruption, DamagedDatabaseMeansSilentFullRecompile) {
  const std::string src = bench::fan_out(8, 64);
  std::string dir = fresh_cache_dir("damage");
  CompileResult a = compile_with_dir(src, dir);

  // Damage every blob a different way: truncation, payload bit flip, and
  // format-hash skew (a byte of the header's format-hash field).
  int i = 0;
  for (const std::string& rel : blob_listing(dir)) {
    fs::path blob = fs::path(dir) / rel;
    std::vector<uint8_t> bytes = slurp(blob);
    switch (i++ % 3) {
      case 0: bytes.resize(bytes.size() / 2); break;
      case 1: bytes[bytes.size() - 1] ^= 0x40; break;
      case 2: bytes[5] ^= 0x40; break;
    }
    spit(blob, bytes);
  }

  CompileResult b = compile_with_dir(src, dir);
  EXPECT_EQ(b.stats.generated, 9) << "full recompile";
  EXPECT_EQ(b.stats.summaries_computed, 9);
  EXPECT_GT(b.stats.disk_corrupt, 0);
  EXPECT_EQ(print_spmd(b.spmd), print_spmd(a.spmd));

  // The quarantined slots were rewritten cleanly: a third fresh Compiler
  // is fully warm again.
  CompileResult c = compile_with_dir(src, dir);
  EXPECT_EQ(c.stats.generated, 0);
  EXPECT_EQ(c.stats.summaries_computed, 0);
  EXPECT_EQ(c.stats.disk_corrupt, 0);
}

TEST(CompilerCorruption, RoundTripsCachedProcedureThroughTheCodec) {
  // serialize/deserialize_cached_procedure is exercised end-to-end by the
  // two-process tests; here the decode path must also reject garbage.
  EXPECT_FALSE(deserialize_cached_procedure({}).has_value());
  EXPECT_FALSE(
      deserialize_cached_procedure(std::vector<uint8_t>(64, 0xfe)).has_value());
}

// ---------------------------------------------------------------------------
// Stats survive a CompileError (fortdc -timings after a failed compile)
// ---------------------------------------------------------------------------

TEST(CompilerStatsOnError, LastStatsFilledWhenCompileThrows) {
  // Recursion is rejected while building the augmented call graph, well
  // after bind — the phases that ran must still be reported, and pending
  // store writes must still be flushed.
  const char* recursive = R"(
      program p
      call a()
      end
      subroutine a()
      call b()
      end
      subroutine b()
      call a()
      end
)";
  std::string dir = fresh_cache_dir("error_stats");
  CodegenOptions opt;
  Compiler compiler(opt, {}, {}, CacheOptions{dir});
  EXPECT_THROW(compiler.compile_source(recursive), CompileError);
  EXPECT_GT(compiler.last_stats().total_ms, 0.0);
  EXPECT_EQ(compiler.last_stats().jobs, 1);
  EXPECT_EQ(compiler.last_stats().generated, 0);
}

// ---------------------------------------------------------------------------
// fortdc -cache-stats-json
// ---------------------------------------------------------------------------

TEST(CacheStatsJson, NamesEveryTier) {
  CodegenOptions opt;
  opt.n_procs = 4;
  Compiler compiler(opt, {}, {}, CacheOptions{fresh_cache_dir("stats_json")});
  compiler.compile_source(bench::fan_out(4, 64));

  const std::string json = compiler.cache_stats_json();
  EXPECT_NE(json.find("\"memory\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"disk\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"scheduler\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"misses\":"), std::string::npos) << json;
}

}  // namespace
}  // namespace fortd
