#include "driver/compilation_db.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "support/compress.hpp"
#include "support/serialize.hpp"

namespace fs = std::filesystem;

namespace fortd {

namespace {

// Blob envelope: magic | format_hash | digest | comp_size | raw_size |
// LZ(payload) | fnv1a(LZ(payload)). All integers fixed-width
// little-endian so truncation checks are trivial; the checksum covers the
// compressed bytes, so envelope validation never pays a decompression.
constexpr uint8_t kMagic[4] = {'F', 'D', 'C', 'A'};
constexpr size_t kHeaderSize = 4 + 8 + 8 + 8 + 8;
constexpr size_t kTrailerSize = 8;

void put_u64(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<uint8_t>(v >> (i * 8)));
}

uint64_t get_u64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (i * 8);
  return v;
}

std::optional<std::vector<uint8_t>> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  if (in.bad()) return std::nullopt;
  return bytes;
}

/// Write-to-temp + atomic rename; false on any I/O failure.
bool write_file_atomic(const std::string& path,
                       const std::vector<uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) return false;
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return false;
  }
  return true;
}

std::optional<uint64_t> parse_hex_digest(const std::string& name) {
  if (name.size() != 16) return std::nullopt;
  uint64_t v = 0;
  for (char c : name) {
    int d;
    if (c >= '0' && c <= '9') d = c - '0';
    else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
    else return std::nullopt;
    v = (v << 4) | static_cast<uint64_t>(d);
  }
  return v;
}

/// Header fields of a structurally valid envelope (magic, sizes, and
/// checksum verified; format hash NOT compared against anything).
struct BlobInfo {
  uint64_t format_hash = 0;
  uint64_t digest = 0;
  uint64_t raw_size = 0;
};

std::optional<BlobInfo> inspect_blob_envelope(
    const std::vector<uint8_t>& blob) {
  if (blob.size() < kHeaderSize + kTrailerSize) return std::nullopt;
  if (std::memcmp(blob.data(), kMagic, 4) != 0) return std::nullopt;
  BlobInfo info;
  info.format_hash = get_u64(blob.data() + 4);
  info.digest = get_u64(blob.data() + 12);
  const uint64_t comp_size = get_u64(blob.data() + 20);
  info.raw_size = get_u64(blob.data() + 28);
  if (blob.size() != kHeaderSize + comp_size + kTrailerSize)
    return std::nullopt;
  const uint8_t* comp = blob.data() + kHeaderSize;
  if (get_u64(comp + comp_size) != fnv1a(comp, comp_size)) return std::nullopt;
  return info;
}

}  // namespace

uint64_t artifact_format_hash(const std::string& kind) {
  BinaryWriter w;
  w.str(kind);
  w.u64(kSerializeFormatVersion);
  w.u64(kCompressFormatVersion);
  return fnv1a(w.bytes());
}

std::vector<uint8_t> make_blob_envelope(uint64_t format_hash, uint64_t digest,
                                        const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> comp = compress_bytes(payload);
  std::vector<uint8_t> out;
  out.reserve(kHeaderSize + comp.size() + kTrailerSize);
  for (uint8_t b : kMagic) out.push_back(b);
  put_u64(out, format_hash);
  put_u64(out, digest);
  put_u64(out, comp.size());
  put_u64(out, payload.size());
  out.insert(out.end(), comp.begin(), comp.end());
  put_u64(out, fnv1a(comp.data(), comp.size()));
  return out;
}

std::optional<std::vector<uint8_t>> open_blob_envelope(
    const std::vector<uint8_t>& blob, uint64_t format_hash, uint64_t digest) {
  auto info = inspect_blob_envelope(blob);
  if (!info || info->format_hash != format_hash || info->digest != digest)
    return std::nullopt;
  auto raw = decompress_bytes(blob.data() + kHeaderSize,
                              blob.size() - kHeaderSize - kTrailerSize);
  if (!raw || raw->size() != info->raw_size) return std::nullopt;
  return raw;
}

std::string ContentStore::hex_digest(uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

bool ContentStore::valid_kind(const std::string& kind) {
  if (kind.empty() || kind.size() > 64) return false;
  if (kind == "." || kind == "..") return false;
  for (char c : kind) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

ContentStore::ContentStore(CacheOptions options)
    : options_(std::move(options)) {
  if (options_.dir.empty()) return;
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  std::lock_guard<std::mutex> lock(mu_);
  load_index_locked();
}

ContentStore::~ContentStore() { flush(); }

std::string ContentStore::blob_path(const std::string& kind,
                                    uint64_t digest) const {
  return options_.dir + "/" + kind + "/" + hex_digest(digest);
}

std::string ContentStore::index_path() const { return options_.dir + "/index"; }

void ContentStore::load_index_locked() {
  // Ticks come from the index file; the artifact population comes from a
  // filesystem scan, so a missing or stale index degrades gracefully
  // (unknown blobs get tick 0 and are first in line for eviction, index
  // entries whose files vanished are dropped).
  std::map<Key, uint64_t> ticks;
  if (auto bytes = read_file(index_path())) {
    std::istringstream in(
        std::string(bytes->begin(), bytes->end()));
    std::string tag;
    int version = 0;
    uint64_t next_tick = 1;
    if (in >> tag >> version >> next_tick && tag == "fortd-cache-index" &&
        version == 1) {
      next_tick_ = next_tick;
      std::string kind, hex;
      uint64_t size, tick;
      while (in >> kind >> hex >> size >> tick)
        if (auto digest = parse_hex_digest(hex))
          ticks[{kind, *digest}] = tick;
    }
  }

  std::error_code ec;
  for (const auto& kind_dir : fs::directory_iterator(options_.dir, ec)) {
    if (!kind_dir.is_directory(ec)) continue;
    const std::string kind = kind_dir.path().filename().string();
    if (!valid_kind(kind)) continue;  // foreign directories stay foreign
    for (const auto& file : fs::directory_iterator(kind_dir.path(), ec)) {
      if (!file.is_regular_file(ec)) continue;
      auto digest = parse_hex_digest(file.path().filename().string());
      if (!digest) continue;  // temp files, foreign junk
      Entry entry;
      entry.size = file.file_size(ec);
      if (ec) entry.size = 0;
      auto it = ticks.find({kind, *digest});
      entry.tick = it != ticks.end() ? it->second : 0;
      next_tick_ = std::max(next_tick_, entry.tick + 1);
      index_[{kind, *digest}] = entry;
    }
  }
}

void ContentStore::quarantine_locked(const std::string& kind,
                                     uint64_t digest) {
  ++counters_.corrupt;
  index_.erase({kind, digest});
  index_dirty_ = true;
  if (options_.dir.empty()) return;
  std::error_code ec;
  fs::remove(blob_path(kind, digest), ec);
}

std::optional<std::vector<uint8_t>> ContentStore::local_blob_locked(
    const std::string& kind, uint64_t format_hash, uint64_t digest) {
  const Key key{kind, digest};

  if (auto pit = pending_.find(key); pit != pending_.end()) {
    auto info = inspect_blob_envelope(pit->second);
    if (info && info->format_hash == format_hash && info->digest == digest)
      return pit->second;
    // A pending blob written under a different format hash (never in
    // practice: one process runs one codec version).
    return std::nullopt;
  }

  if (options_.dir.empty()) return std::nullopt;
  auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  auto blob = read_file(blob_path(kind, digest));
  if (!blob) {
    // File vanished under us: plain miss, fix the index.
    index_.erase(it);
    index_dirty_ = true;
    return std::nullopt;
  }
  auto info = inspect_blob_envelope(*blob);
  if (!info || info->format_hash != format_hash || info->digest != digest) {
    // Truncation, bit flip, or version skew: quarantine the slot.
    quarantine_locked(kind, digest);
    return std::nullopt;
  }
  it->second.tick = next_tick_++;
  index_dirty_ = true;
  return blob;
}

std::optional<std::vector<uint8_t>> ContentStore::load(const std::string& kind,
                                                       uint64_t format_hash,
                                                       uint64_t digest) {
  if (options_.dir.empty()) return std::nullopt;
  std::lock_guard<std::mutex> lock(mu_);
  if (!valid_kind(kind)) {
    ++counters_.misses;
    return std::nullopt;
  }
  if (auto blob = local_blob_locked(kind, format_hash, digest)) {
    if (auto payload = open_blob_envelope(*blob, format_hash, digest)) {
      ++counters_.hits;
      return payload;
    }
    // Checksum passed but the payload would not decompress to its
    // declared size: treat exactly like disk corruption.
    pending_.erase({kind, digest});
    quarantine_locked(kind, digest);
  }
  ++counters_.misses;
  return std::nullopt;
}

void ContentStore::store(const std::string& kind, uint64_t format_hash,
                         uint64_t digest, std::vector<uint8_t> payload) {
  if (options_.dir.empty()) return;
  if (!valid_kind(kind)) return;  // dropped write, never a path component
  std::vector<uint8_t> blob = make_blob_envelope(format_hash, digest, payload);
  std::lock_guard<std::mutex> lock(mu_);
  pending_[{kind, digest}] = std::move(blob);
}

void ContentStore::mark_corrupt(const std::string& kind, uint64_t digest) {
  if (options_.dir.empty()) return;
  if (!valid_kind(kind)) return;
  std::lock_guard<std::mutex> lock(mu_);
  pending_.erase({kind, digest});
  quarantine_locked(kind, digest);
}

void ContentStore::flush() {
  if (options_.dir.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  std::error_code ec;
  for (auto& [key, blob] : pending_) {
    fs::create_directories(options_.dir + "/" + key.first, ec);
    const std::string path = blob_path(key.first, key.second);
    if (!write_file_atomic(path, blob)) continue;  // dropped write
    index_[key] = Entry{blob.size(), next_tick_++};
    ++counters_.writes;
    index_dirty_ = true;
  }
  pending_.clear();

  // LRU GC: evict oldest-tick artifacts until the size bound holds.
  if (options_.max_bytes > 0) {
    uint64_t total = 0;
    for (const auto& [key, entry] : index_) total += entry.size;
    while (total > options_.max_bytes && !index_.empty()) {
      auto victim = index_.begin();
      for (auto it = index_.begin(); it != index_.end(); ++it)
        if (it->second.tick < victim->second.tick) victim = it;
      fs::remove(blob_path(victim->first.first, victim->first.second), ec);
      total -= std::min(total, victim->second.size);
      index_.erase(victim);
      ++counters_.evictions;
      index_dirty_ = true;
    }
  }

  if (!index_dirty_) return;
  std::ostringstream out;
  out << "fortd-cache-index 1 " << next_tick_ << "\n";
  for (const auto& [key, entry] : index_)
    out << key.first << " " << hex_digest(key.second) << " " << entry.size
        << " " << entry.tick << "\n";
  const std::string text = out.str();
  if (write_file_atomic(index_path(),
                        std::vector<uint8_t>(text.begin(), text.end())))
    index_dirty_ = false;
}

void ContentStore::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  pending_.clear();
  if (options_.dir.empty()) return;
  std::error_code ec;
  for (const auto& [key, entry] : index_)
    fs::remove(blob_path(key.first, key.second), ec);
  fs::remove(index_path(), ec);
  index_.clear();
  index_dirty_ = false;
}

ContentStore::Counters ContentStore::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

size_t ContentStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = index_.size();
  for (const auto& [key, blob] : pending_)
    if (!index_.count(key)) ++n;
  return n;
}

}  // namespace fortd
