// The persistent content-addressed compilation database:
//   * BinaryWriter/BinaryReader round trips and stream-failure semantics,
//   * the envelope's checksum,
//   * ContentStore lifecycle — store/flush/load across instances,
//     records another store appended after this one opened,
//     byte-exact payloads, the one-file layout, the rewrite policy,
//     clear(), kind validation and traversal kinds, mark_corrupt, the
//     inert store without a directory, and soaks of one store in four
//     threads and of two stores on one directory,
//   * corruption robustness — truncation, bit flips, and version skew all
//     degrade to a silent recompile with the corrupt counter bumped and
//     the damaged record dropped,
//   * the pack under fortdc processes — two at once, a torn tail, a
//     directory in the old per-artifact layout,
//   * two-process recompilation — a *fresh Compiler* pointed at a
//     populated cache directory generates 0 procedures and computes 0
//     summaries on an unchanged program, and regenerates exactly the one
//     edited procedure after a 1-of-N edit,
//   * golden digest stability — two independent compiler constructions
//     produce identical artifact digests and byte-identical packs,
//   * cold-vs-warm byte identity for jobs=1 and jobs=4,
//   * CompilerStats surviving a CompileError (the -timings analogue of
//     last_lint_report()), and -cache-stats-json naming every tier.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <random>
#include <cstdlib>
#include <set>
#include <thread>

#include "../bench/programs.hpp"
#include "cache_dir.hpp"
#include "codegen/spmd_printer.hpp"
#include "driver/compilation_db.hpp"
#include "driver/compiler.hpp"
#include "support/serialize.hpp"

namespace fs = std::filesystem;

namespace fortd {
namespace {

using test::fresh_cache_dir;
using test::pack_records;
using test::PackRecord;
using test::FortdcRun;
using test::fortdc_command;
using test::run_fortdc;
using test::slurp_text;

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

/// The names in `dir`.
std::set<std::string> dir_listing(const std::string& dir) {
  std::set<std::string> out;
  for (const auto& entry : fs::directory_iterator(dir))
    out.insert(entry.path().filename().string());
  return out;
}

/// Every record's key as "kind/digest".
std::set<std::string> pack_keys(const std::string& dir) {
  std::set<std::string> out;
  for (const PackRecord& r : pack_records(dir))
    out.insert(r.kind + "/" + std::to_string(r.digest));
  return out;
}

/// Rewrite `<dir>/pack` through `edit`.
template <typename Edit>
void damage_pack(const std::string& dir, Edit edit) {
  const fs::path pack = fs::path(dir) / "pack";
  std::vector<uint8_t> bytes = slurp(pack);
  edit(bytes);
  spit(pack, bytes);
}

/// Pack bytes of one "proc" record with an `n`-byte payload.
uint64_t proc_record_size(size_t n) {
  return 1 + 4 + make_blob_envelope(7, 1, std::vector<uint8_t>(n, 1)).size();
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
// The envelope
// ---------------------------------------------------------------------------

TEST(Envelope, ChecksumCoversTheHeader) {
  // A record is indexed by the digest in its own header, so a flipped
  // digest must fail the checksum rather than serve the payload under
  // another key.
  const std::vector<uint8_t> payload = bytes_of({1, 2, 3, 4});
  const std::vector<uint8_t> blob = make_blob_envelope(7, 42, payload);
  auto back = open_blob_envelope(blob, 7, 42);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, payload);
  for (size_t i = 4; i < 28; ++i) {  // format hash, digest and size fields
    std::vector<uint8_t> bad = blob;
    bad[i] ^= 0x01;
    const uint64_t digest = i >= 12 && i < 20 ? 42 ^ (1ull << ((i - 12) * 8))
                                              : 42;
    const uint64_t format = i < 12 ? 7 ^ (1ull << ((i - 4) * 8)) : 7;
    EXPECT_FALSE(open_blob_envelope(bad, format, digest).has_value()) << i;
  }
}

// ---------------------------------------------------------------------------
// ContentStore lifecycle
// ---------------------------------------------------------------------------

TEST(ContentStore, PendingBlobIsVisibleBeforeFlush) {
  ContentStore store({fresh_cache_dir("pending")});
  store.store("proc", 7, 42, bytes_of({1, 2, 3}));
  auto got = store.load("proc", 7, 42);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, bytes_of({1, 2, 3}));
  // Not yet on disk: the write is buffered off the hot path.
  EXPECT_TRUE(pack_records(store.options().dir).empty());
}

TEST(ContentStore, FlushedBlobSurvivesIntoANewInstance) {
  std::string dir = fresh_cache_dir("survive");
  {
    ContentStore store({dir});
    store.store("proc", 7, 42, bytes_of({9, 8, 7}));
    store.store("summary", 11, 43, bytes_of({4, 5}));
  }  // destructor flushes
  EXPECT_EQ(dir_listing(dir), std::set<std::string>{"pack"});
  EXPECT_EQ(pack_keys(dir),
            (std::set<std::string>{"proc/42", "summary/43"}));

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

TEST(ContentStore, MissIndexesWhatAnotherStoreAppendedOncePerFlush) {
  // The first store stands for fortdd's long-lived one, the second for a
  // fortdc process that appended to the pack after the first opened it.
  const std::string dir = fresh_cache_dir("catch_up");
  ContentStore resident({dir});
  ContentStore local({dir});
  local.store("proc", 7, 1, bytes_of({1}));
  local.flush();
  auto got = resident.load("proc", 7, 1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, bytes_of({1}));

  // One catch-up between two flushes: a later append is found after the
  // resident store's next flush, not on every miss.
  local.store("proc", 7, 2, bytes_of({2}));
  local.flush();
  EXPECT_FALSE(resident.load("proc", 7, 2).has_value());
  resident.flush();
  got = resident.load("proc", 7, 2);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, bytes_of({2}));
  EXPECT_EQ(resident.counters().hits, 2u);
  EXPECT_EQ(resident.counters().misses, 1u);
  EXPECT_EQ(resident.counters().corrupt, 0u);
  EXPECT_EQ(resident.size(), 2u);
}

/// Eight 200-byte "k" records stored and flushed by `writer`, whose
/// max_bytes of 1024 makes the flush rewrite the pack; the keys it kept.
std::set<std::string> overflow_into_a_rewrite(ContentStore& writer) {
  for (uint64_t k = 0; k < 8; ++k)
    writer.store("k", 7, k, std::vector<uint8_t>(200, static_cast<uint8_t>(k)));
  writer.flush();
  return pack_keys(writer.options().dir);
}

TEST(ContentStore, MissSeesAPackAnotherStoreRewrote) {
  // The rewrite renames a new pack over the one the resident store holds
  // open; that file never grows again, so only the name shows the change.
  CacheOptions opt{fresh_cache_dir("rewritten")};
  opt.max_bytes = 1024;
  ContentStore resident(opt);
  ContentStore local(opt);
  const std::set<std::string> kept = overflow_into_a_rewrite(local);
  ASSERT_EQ(kept.size(), 4u);
  for (uint64_t k = 0; k < 8; ++k)
    EXPECT_EQ(resident.load("k", 7, k).has_value(),
              kept.count("k/" + std::to_string(k)) > 0)
        << k;
  EXPECT_EQ(resident.counters().hits, 4u);
  EXPECT_EQ(resident.counters().corrupt, 0u);
}

TEST(ContentStore, MissBeforeARewriteSeesTheNewPackAfterTheNextFlush) {
  CacheOptions opt{fresh_cache_dir("rewritten_after_miss")};
  opt.max_bytes = 1024;
  ContentStore resident(opt);
  ContentStore local(opt);
  EXPECT_FALSE(resident.load("k", 7, 99).has_value());
  const std::set<std::string> kept = overflow_into_a_rewrite(local);
  ASSERT_EQ(kept.size(), 4u);
  // One catch-up between two flushes: the resident store looks again
  // after its next flush, which has nothing to write.
  EXPECT_FALSE(resident.load("k", 7, 7).has_value());
  resident.flush();
  for (uint64_t k = 0; k < 8; ++k)
    EXPECT_EQ(resident.load("k", 7, k).has_value(),
              kept.count("k/" + std::to_string(k)) > 0)
        << k;
  EXPECT_EQ(resident.counters().hits, 4u);
}

TEST(ContentStore, TruncatedBlobIsCorruptAndQuarantined) {
  std::string dir = fresh_cache_dir("truncate");
  {
    ContentStore store({dir});
    store.store("proc", 7, 42, std::vector<uint8_t>(64, 0xab));
  }
  const fs::path pack = fs::path(dir) / "pack";
  fs::resize_file(pack, fs::file_size(pack) / 2);

  ContentStore store({dir});
  EXPECT_FALSE(store.load("proc", 7, 42).has_value());
  EXPECT_EQ(store.counters().corrupt, 1u);
  EXPECT_EQ(store.counters().misses, 1u);
  EXPECT_EQ(store.size(), 0u) << "a torn record is never indexed";
  // The rewrite a torn pack forces makes the key warm again.
  store.store("proc", 7, 42, bytes_of({1}));
  store.flush();
  ContentStore reopened({dir});
  auto got = reopened.load("proc", 7, 42);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, bytes_of({1}));
  EXPECT_EQ(reopened.counters().corrupt, 0u);
  EXPECT_EQ(dir_listing(dir), std::set<std::string>{"pack"});
}

TEST(ContentStore, BitFlippedPayloadFailsTheChecksum) {
  std::string dir = fresh_cache_dir("bitflip");
  {
    ContentStore store({dir});
    store.store("proc", 7, 42, std::vector<uint8_t>(64, 0xab));
  }
  const std::vector<PackRecord> records = pack_records(dir);
  ASSERT_EQ(records.size(), 1u);
  damage_pack(dir, [&](std::vector<uint8_t>& bytes) {
    // One bit, somewhere in the payload.
    bytes[records[0].offset + records[0].size / 2] ^= 0x01;
  });

  ContentStore store({dir});
  EXPECT_EQ(store.size(), 1u);
  EXPECT_FALSE(store.load("proc", 7, 42).has_value());
  EXPECT_EQ(store.counters().corrupt, 1u);
  EXPECT_EQ(store.size(), 0u) << "a corrupt record leaves the index";
  store.store("proc", 7, 42, bytes_of({2}));
  store.flush();
  ContentStore reopened({dir});
  auto got = reopened.load("proc", 7, 42);
  ASSERT_TRUE(got.has_value()) << "the later record wins";
  EXPECT_EQ(*got, bytes_of({2}));
}

TEST(ContentStore, FormatHashSkewReadsAsCorruption) {
  // A record written by an older codec version carries a different format
  // hash; loading it under the current hash must count corruption, not
  // decode.
  std::string dir = fresh_cache_dir("skew");
  {
    ContentStore store({dir});
    store.store("proc", /*format_hash=*/7, 42, bytes_of({1, 2, 3}));
  }
  ContentStore store({dir});
  EXPECT_FALSE(store.load("proc", /*format_hash=*/8, 42).has_value());
  EXPECT_EQ(store.counters().corrupt, 1u);
  EXPECT_EQ(store.size(), 0u);
}

TEST(ContentStore, LruEvictionKeepsTheMostRecentlyUsed) {
  std::string dir = fresh_cache_dir("lru");
  CacheOptions opt{dir};
  // Three same-shaped records; bound the pack to two of them.
  const uint64_t record_size = proc_record_size(100);
  opt.max_bytes = 2 * record_size + record_size / 2;
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
  EXPECT_EQ(pack_keys(dir), (std::set<std::string>{"proc/1", "proc/3"}));
  EXPECT_LE(fs::file_size(fs::path(dir) / "pack"), opt.max_bytes);
  EXPECT_TRUE(store.load("proc", 7, 1).has_value());
  EXPECT_FALSE(store.load("proc", 7, 2).has_value());
}

TEST(ContentStore, ReopenedStoreEvictsWhatItDidNotUse) {
  // Recency lives in the store, not in the pack: a second store knows only
  // what it loaded or stored itself.
  std::string dir = fresh_cache_dir("lru_reopen");
  {
    ContentStore store({dir});
    store.store("proc", 7, 1, std::vector<uint8_t>(100, 1));
    store.store("proc", 7, 2, std::vector<uint8_t>(100, 2));
    store.flush();
    EXPECT_TRUE(store.load("proc", 7, 2).has_value());  // 2 is newest here
  }
  CacheOptions opt{dir};
  const uint64_t record_size = proc_record_size(100);
  opt.max_bytes = 2 * record_size + record_size / 2;
  ContentStore store(opt);
  EXPECT_TRUE(store.load("proc", 7, 1).has_value());
  store.store("proc", 7, 3, std::vector<uint8_t>(100, 3));
  store.flush();
  // 1 and 3 were used here and fit; 2 was not, and max_bytes/2 leaves no
  // room for it.
  EXPECT_EQ(store.counters().evictions, 1u);
  EXPECT_EQ(pack_keys(dir), (std::set<std::string>{"proc/1", "proc/3"}));
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
  EXPECT_EQ(dir_listing(dir), std::set<std::string>{"pack"});
  EXPECT_TRUE(pack_records(dir).empty());
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
  EXPECT_TRUE(pack_records(dir).empty());
  EXPECT_FALSE(store.load("proc", 7, 1).has_value());
  EXPECT_EQ(dir_listing(dir), std::set<std::string>{"pack"});
}

TEST(ContentStore, ForeignFilesInTheDirectoryAreIgnored) {
  // The per-artifact layout this store replaced (<kind>/<hex digest>
  // files and a text index) included: nothing reads or removes it.
  std::string dir = fresh_cache_dir("foreign");
  fs::create_directories(fs::path(dir) / "proc");
  spit(fs::path(dir) / "proc" / "000000000000002a",
       make_blob_envelope(7, 42, bytes_of({1, 2})));
  spit(fs::path(dir) / "index", bytes_of({'f', 'o', 'r', 't', 'd'}));
  spit(fs::path(dir) / "README", bytes_of({3}));
  ContentStore store({dir});
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(store.load("proc", 7, 42).has_value());
  store.store("proc", 7, 1, bytes_of({9}));
  store.flush();
  EXPECT_TRUE(fs::exists(fs::path(dir) / "proc" / "000000000000002a"));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "index"));
  EXPECT_EQ(pack_keys(dir), std::set<std::string>{"proc/1"});
  EXPECT_EQ(store.counters().corrupt, 0u);
}

TEST(ContentStore, StoreThenLoadRoundTripsEveryByteValueExactly) {
  // Payloads are opaque bytes: every byte value, a long run and noise all
  // survive the envelope and a reopen.
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
  // No store, load or mark_corrupt may follow a hostile kind out of the
  // cache directory: a digest-named decoy beside it must survive a
  // mark_corrupt aimed at it.
  const fs::path root = fresh_cache_dir("traversal");
  const std::string dir = (root / "store").string();
  const fs::path decoy = root / "000000000000002a";
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
  EXPECT_TRUE(fs::exists(decoy)) << "a mark_corrupt followed a traversal kind";
  EXPECT_FALSE(fs::exists(root / "escaped"));
  EXPECT_EQ(dir_listing(dir), std::set<std::string>{"pack"});
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.counters().writes, 0u);
  EXPECT_EQ(store.counters().corrupt, 0u);
  EXPECT_EQ(store.counters().misses, hostile.size());
}

TEST(ContentStore, MarkCorruptQuarantinesAFlushedBlob) {
  // A payload the artifact codec cannot decode is reported from above the
  // envelope; its record must go exactly as a failed checksum's would,
  // and its neighbours must stay.
  const std::string dir = fresh_cache_dir("mark_corrupt");
  ContentStore store({dir});
  store.store("proc", 7, 42, bytes_of({1, 2, 3}));
  store.store("proc", 7, 43, bytes_of({4}));
  store.flush();
  ASSERT_EQ(pack_keys(dir), (std::set<std::string>{"proc/42", "proc/43"}));

  store.mark_corrupt("proc", 42);
  EXPECT_EQ(store.counters().corrupt, 1u);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_FALSE(store.load("proc", 7, 42).has_value());
  EXPECT_TRUE(store.load("proc", 7, 43).has_value());
  // The compiler answers a corrupt artifact by storing it afresh; the new
  // record wins over the old one in every store opened later.
  store.store("proc", 7, 42, bytes_of({5, 6}));
  store.flush();

  ContentStore reopened({dir});
  EXPECT_EQ(reopened.size(), 2u);
  auto got = reopened.load("proc", 7, 42);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, bytes_of({5, 6}));
}

TEST(ContentStore, MarkCorruptDropsAPendingWrite) {
  const std::string dir = fresh_cache_dir("mark_pending");
  ContentStore store({dir});
  store.store("summary", 9, 5, bytes_of({5, 5}));
  store.mark_corrupt("summary", 5);
  EXPECT_FALSE(store.load("summary", 9, 5).has_value());
  store.flush();
  EXPECT_EQ(store.counters().writes, 0u);
  EXPECT_TRUE(pack_records(dir).empty());
  EXPECT_EQ(store.size(), 0u);
}

TEST(ContentStore, SameDigestUnderTwoKindsAreDistinctArtifacts) {
  // Keys are (kind, digest): a procedure and a summary that share a
  // digest must never read, or drop, each other's payload.
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
  EXPECT_EQ(pack_records(dir).size(), 40u);
}

TEST(ContentStore, EmptyDirectoryMakesTheStoreInert) {
  // Without -cache-dir the memory tiers run alone. The store takes every
  // call and neither keeps nor writes anything: with an empty directory
  // the pack path would start at the filesystem root.
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

std::vector<uint8_t> soak_payload(uint64_t digest) {
  std::vector<uint8_t> p(64 + digest % 512);
  for (size_t i = 0; i < p.size(); ++i)
    p[i] = static_cast<uint8_t>(digest * 31 + i * 7);
  return p;
}

TEST(ContentStoreSoak, ConcurrentThreadsMixLoadsAndStoresByteIdentically) {
  // Compile workers load and store artifacts from concurrent task-graph
  // nodes. Four threads interleave private writes, read-backs, shared
  // reads and flushes on one store; every read must return exactly the
  // bytes stored (run under FORTD_SANITIZE=thread to vet the locking).
  constexpr int kThreads = 4;
  constexpr int kOps = 40;
  constexpr uint64_t kFormat = 11;
  const auto private_digest = [](int t, int i) {
    return 1000 + static_cast<uint64_t>(t) * 100 + static_cast<uint64_t>(i);
  };

  const std::string dir = fresh_cache_dir("store_soak");
  {
    ContentStore seeder({dir});
    for (uint64_t d = 1; d <= 8; ++d)
      seeder.store("proc", kFormat, d, soak_payload(d));
  }
  ContentStore store({dir});
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        const uint64_t mine = private_digest(t, i);
        store.store("summary", kFormat, mine, soak_payload(mine));
        auto got = store.load("summary", kFormat, mine);
        if (!got || *got != soak_payload(mine)) ++failures[t];
        const uint64_t shared = 1 + static_cast<uint64_t>(i) % 8;
        auto s = store.load("proc", kFormat, shared);
        if (!s || *s != soak_payload(shared)) ++failures[t];
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
      EXPECT_EQ(*got, soak_payload(private_digest(t, i)));
    }
}

TEST(ContentStoreSoak, TwoStoresOnOneDirectoryShareOnePack) {
  // Two stores on one directory stand for two compiler processes. Each
  // thread stores the same keys, loads keys the other may not have
  // flushed yet, and flushes; a small bound makes rewrites race the
  // appends. A load returns the exact bytes or a miss, and a store opened
  // afterwards loads every key that survived, exactly.
  constexpr uint64_t kKeys = 60;
  constexpr uint64_t kFormat = 11;
  for (const uint64_t max_bytes : {uint64_t{0}, uint64_t{4} << 10}) {
    SCOPED_TRACE(max_bytes);
    const std::string dir =
        fresh_cache_dir("two_stores_" + std::to_string(max_bytes));
    std::atomic<int> wrong{0};
    std::atomic<uint64_t> evictions{0};
    const auto worker = [&](uint64_t t) {
      ContentStore store({dir, max_bytes});
      for (uint64_t i = 0; i < kKeys; ++i) {
        store.store("proc", kFormat, i, soak_payload(i));
        const uint64_t probe = (i * 7 + t * 13) % kKeys;
        auto got = store.load("proc", kFormat, probe);
        if (got && *got != soak_payload(probe)) ++wrong;
        if (i % 4 == t) store.flush();
      }
      store.flush();
      evictions += store.counters().evictions;
    };
    std::thread a(worker, 0), b(worker, 1);
    a.join();
    b.join();
    EXPECT_EQ(wrong.load(), 0);

    ContentStore third({dir});
    EXPECT_EQ(third.counters().corrupt, 0u);
    size_t loaded = 0;
    for (uint64_t i = 0; i < kKeys; ++i)
      if (auto got = third.load("proc", kFormat, i)) {
        EXPECT_EQ(*got, soak_payload(i)) << i;
        ++loaded;
      }
    EXPECT_EQ(third.counters().corrupt, 0u);
    if (max_bytes == 0) {
      EXPECT_EQ(loaded, kKeys);
      EXPECT_EQ(evictions.load(), 0u);
    } else {
      EXPECT_GT(loaded, 0u);
      EXPECT_GT(evictions.load(), 0u) << "the bound forced rewrites";
    }
    EXPECT_EQ(dir_listing(dir), std::set<std::string>{"pack"});
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
  // hashing, unordered iteration, uninitialized fields) or in the order a
  // flush appends records would show up as differing packs between two
  // independent compilations into two separate directories.
  const std::string src = bench::fan_out(8, 64);
  std::string dir_a = fresh_cache_dir("golden_a");
  std::string dir_b = fresh_cache_dir("golden_b");
  compile_with_dir(src, dir_a, /*jobs=*/1);
  compile_with_dir(src, dir_b, /*jobs=*/4);

  EXPECT_EQ(pack_keys(dir_a), pack_keys(dir_b));
  EXPECT_GE(pack_records(dir_a).size(), 18u);  // 9 proc + 9 summary records
  EXPECT_EQ(slurp(fs::path(dir_a) / "pack"), slurp(fs::path(dir_b) / "pack"));
}

// ---------------------------------------------------------------------------
// Compiler-level corruption robustness: silent full recompile
// ---------------------------------------------------------------------------

TEST(CompilerCorruption, DamagedDatabaseMeansSilentFullRecompile) {
  const std::string src = bench::fan_out(8, 64);
  std::string dir = fresh_cache_dir("damage");
  CompileResult a = compile_with_dir(src, dir);

  // Damage every record: alternately a payload bit flip and format-hash
  // skew (a byte of the header's format-hash field), then cut the last
  // record short.
  const std::vector<PackRecord> records = pack_records(dir);
  ASSERT_EQ(records.size(), 18u);
  damage_pack(dir, [&](std::vector<uint8_t>& bytes) {
    for (size_t i = 0; i < records.size(); ++i) {
      const PackRecord& r = records[i];
      const size_t env = r.offset + 1 + r.kind.size();
      if (i % 2)
        bytes[env + 5] ^= 0x40;
      else
        bytes[r.offset + r.size - 9] ^= 0x40;
    }
    bytes.resize(bytes.size() - records.back().size / 2);
  });

  CompileResult b = compile_with_dir(src, dir);
  EXPECT_EQ(b.stats.generated, 9) << "full recompile";
  EXPECT_EQ(b.stats.summaries_computed, 9);
  EXPECT_GT(b.stats.disk_corrupt, 0);
  EXPECT_EQ(print_spmd(b.spmd), print_spmd(a.spmd));

  // The torn tail forced a rewrite that dropped every damaged record: a
  // third fresh Compiler is fully warm again.
  EXPECT_EQ(pack_records(dir).size(), 18u);
  CompileResult c = compile_with_dir(src, dir);
  EXPECT_EQ(c.stats.generated, 0);
  EXPECT_EQ(c.stats.summaries_computed, 0);
  EXPECT_EQ(c.stats.disk_corrupt, 0);
}

TEST(PackRewrite, HeadroomLetsTheNextCompileAppend) {
  // A compile that overflows max_bytes rewrites the pack, keeping what it
  // used within max_bytes and the rest within max_bytes/2; the next
  // compile then appends without evicting anything.
  const std::string big = bench::fan_out(64, 64);
  const std::string mid = bench::dgefa(16);
  const std::string small = bench::fig15(64, 4);
  const auto pack_size = [](const std::string& src, const std::string& tag) {
    const std::string dir = fresh_cache_dir("headroom_" + tag);
    compile_with_dir(src, dir);
    return fs::file_size(fs::path(dir) / "pack");
  };
  const uint64_t a = pack_size(big, "a");
  const uint64_t b = pack_size(mid, "b");
  const uint64_t c = pack_size(small, "c");
  const uint64_t max_bytes = a + b - 1;  // the second compile overflows
  ASSERT_LE(std::max(b, c), max_bytes / 2);

  const std::string dir = fresh_cache_dir("headroom");
  const auto compile = [&](const std::string& src) {
    CodegenOptions opt;
    opt.n_procs = 4;
    Compiler compiler(opt, {}, {}, CacheOptions{dir, max_bytes});
    return compiler.compile_source(src).stats;
  };
  EXPECT_EQ(compile(big).disk_evictions, 0);  // an empty pack takes it all
  EXPECT_GT(compile(mid).disk_evictions, 0);  // overflow: a rewrite
  const uint64_t after_rewrite = fs::file_size(fs::path(dir) / "pack");
  EXPECT_LE(after_rewrite, max_bytes / 2);
  const size_t records = pack_records(dir).size();

  const CompilerStats third = compile(small);
  EXPECT_EQ(third.disk_evictions, 0);
  EXPECT_GT(pack_records(dir).size(), records) << "appended";
  EXPECT_EQ(fs::file_size(fs::path(dir) / "pack"), after_rewrite + c);
  EXPECT_EQ(compile(mid).generated, 0) << "what the rewrite kept is warm";
}

TEST(CompilerCorruption, RoundTripsCachedProcedureThroughTheCodec) {
  // serialize/deserialize_cached_procedure is exercised end-to-end by the
  // two-process tests; here the decode path must also reject garbage.
  EXPECT_FALSE(deserialize_cached_procedure({}).has_value());
  EXPECT_FALSE(
      deserialize_cached_procedure(std::vector<uint8_t>(64, 0xfe)).has_value());
}

// ---------------------------------------------------------------------------
// The pack under fortdc processes
// ---------------------------------------------------------------------------

/// "G/P generated" and "summaries C computed" of a -timings report.
std::string recompiled(const std::string& err) {
  const size_t g = err.find(" generated)");
  const size_t gs = err.rfind(", ", g);
  const size_t c = err.find(" computed /");
  const size_t cs = err.rfind("summaries ", c);
  if (g == std::string::npos || c == std::string::npos) return err;
  return err.substr(gs + 2, g - gs - 2) + " generated, " +
         err.substr(cs + 10, c - cs - 10) + " computed";
}

TEST(FortdcCacheDir, TwoProcessesAtOnceKeepBothPrograms) {
  const fs::path work = fresh_cache_dir("fortdc_two_at_once");
  const std::string dir = (work / "cache").string();
  const std::string a = bench::fan_out(96, 64), b = bench::chain_fanout(4, 24, 64);
  const FortdcRun cold_a = run_fortdc(work, "cold_a", a, "-p 4");
  const FortdcRun cold_b = run_fortdc(work, "cold_b", b, "-p 4");
  const std::string args = "-p 4 -cache-dir " + dir;
  const std::string both = "(" + fortdc_command(work, "a", a, args) + ") & (" +
                           fortdc_command(work, "b", b, args) + ") & wait";
  ASSERT_EQ(std::system(both.c_str()), 0);
  EXPECT_EQ(slurp_text(work / "a.out"), cold_a.out);
  EXPECT_EQ(slurp_text(work / "b.out"), cold_b.out);

  const FortdcRun warm_a = run_fortdc(work, "warm_a", a, args + " -timings");
  const FortdcRun warm_b = run_fortdc(work, "warm_b", b, args + " -timings");
  EXPECT_EQ(recompiled(warm_a.err), "0/97 generated, 0 computed");
  EXPECT_EQ(warm_a.out, cold_a.out);
  EXPECT_EQ(warm_b.out, cold_b.out);
  EXPECT_EQ(recompiled(warm_b.err).substr(0, 2), "0/") << warm_b.err;
  EXPECT_NE(warm_b.err.find("summaries 0 computed"), std::string::npos)
      << warm_b.err;
  EXPECT_EQ(dir_listing(dir), std::set<std::string>{"pack"});
}

TEST(FortdcCacheDir, TornTailRecompilesOnlyWhatWasLost) {
  const fs::path work = fresh_cache_dir("fortdc_torn");
  const std::string dir = (work / "cache").string();
  const std::string src = bench::fan_out(8, 64);
  const std::string args = "-p 4 -timings -cache-dir " + dir;
  const FortdcRun cold = run_fortdc(work, "cold", src, args);
  ASSERT_EQ(cold.exit_code, 0) << cold.err;
  EXPECT_EQ(recompiled(cold.err), "9/9 generated, 9 computed");

  // Cut the last record short, as a compile killed mid-append would.
  const std::vector<PackRecord> records = pack_records(dir);
  ASSERT_EQ(records.back().kind, "summary");
  fs::resize_file(fs::path(dir) / "pack",
                  records.back().offset + records.back().size - 3);

  const FortdcRun torn = run_fortdc(work, "torn", src, args);
  EXPECT_EQ(torn.exit_code, 0) << torn.err;
  EXPECT_EQ(torn.out, cold.out);
  EXPECT_EQ(recompiled(torn.err), "0/9 generated, 1 computed");
  const FortdcRun warm = run_fortdc(work, "warm", src, args);
  EXPECT_EQ(warm.out, cold.out);
  EXPECT_EQ(recompiled(warm.err), "0/9 generated, 0 computed");
  EXPECT_EQ(pack_records(dir).size(), records.size());
}

TEST(FortdcCacheDir, OldLayoutIsIgnoredWithoutError) {
  // A directory the per-artifact store wrote: <kind>/<hex digest> files
  // and a text index of LRU ticks. The pack store neither reads nor
  // removes them.
  const fs::path work = fresh_cache_dir("fortdc_old_layout");
  const fs::path dir = work / "cache";
  fs::create_directories(dir / "proc");
  fs::create_directories(dir / "summary");
  spit(dir / "proc" / "0123456789abcdef", bytes_of({'F', 'D', 'C', 'A', 1}));
  spit(dir / "summary" / "0123456789abcdef.tmp", bytes_of({2}));
  const std::string index = "fortd-cache-index 1 3\nproc 0123456789abcdef 5 2\n";
  spit(dir / "index", std::vector<uint8_t>(index.begin(), index.end()));

  const std::string src = bench::fan_out(8, 64);
  const std::string args = "-p 4 -timings -cache-dir " + dir.string();
  const FortdcRun plain = run_fortdc(work, "plain", src, "-p 4");
  const FortdcRun cold = run_fortdc(work, "cold", src, args);
  EXPECT_EQ(cold.exit_code, 0) << cold.err;
  EXPECT_EQ(cold.out, plain.out);
  EXPECT_NE(cold.err.find("0 corrupt"), std::string::npos) << cold.err;
  const FortdcRun warm = run_fortdc(work, "warm", src, args);
  EXPECT_EQ(warm.out, plain.out);
  EXPECT_EQ(recompiled(warm.err), "0/9 generated, 0 computed");
  EXPECT_EQ(dir_listing(dir.string()),
            (std::set<std::string>{"index", "pack", "proc", "summary"}));
  EXPECT_EQ(slurp_text(dir / "index"), index);
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
