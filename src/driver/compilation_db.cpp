#include "driver/compilation_db.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>
#include <filesystem>

#include "support/serialize.hpp"

namespace fortd {

namespace {

constexpr uint8_t kMagic[4] = {'F', 'D', 'C', 'A'};
constexpr size_t kHeaderSize = 4 + 8 + 8 + 8;  // magic, format, digest, size
constexpr size_t kTrailerSize = 8;              // checksum
constexpr size_t kIoChunk = 64 << 10;  // scan window and rewrite buffer

void put_u64(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<uint8_t>(v >> (i * 8)));
}

uint64_t get_u64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (i * 8);
  return v;
}

void append_envelope(std::vector<uint8_t>& out, uint64_t format_hash,
                     uint64_t digest, const std::vector<uint8_t>& payload) {
  const size_t start = out.size();
  out.insert(out.end(), kMagic, kMagic + 4);
  put_u64(out, format_hash);
  put_u64(out, digest);
  put_u64(out, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
  put_u64(out, fnv1a(out.data() + start, out.size() - start));
}

bool envelope_ok(const uint8_t* p, size_t n, uint64_t format_hash,
                 uint64_t digest) {
  return n >= kHeaderSize + kTrailerSize && std::memcmp(p, kMagic, 4) == 0 &&
         get_u64(p + 4) == format_hash && get_u64(p + 12) == digest &&
         get_u64(p + 20) == n - kHeaderSize - kTrailerSize &&
         get_u64(p + n - kTrailerSize) == fnv1a(p, n - kTrailerSize);
}

// Regular files read and write whole unless at end of file or on error.
bool read_at(int fd, uint8_t* buf, size_t n, uint64_t offset) {
  return ::pread(fd, buf, n, static_cast<off_t>(offset)) ==
         static_cast<ssize_t>(n);
}

bool write_all(int fd, const std::vector<uint8_t>& bytes) {
  return ::write(fd, bytes.data(), bytes.size()) ==
         static_cast<ssize_t>(bytes.size());
}

// Without flock support the store runs unlocked, as a single writer would.
void lock_fd(int fd, int op) {
  while (::flock(fd, op) != 0 && errno == EINTR) {
  }
}

}  // namespace

uint64_t artifact_format_hash(const std::string& kind) {
  BinaryWriter w;
  w.str(kind);
  w.u64(kSerializeFormatVersion);
  return fnv1a(w.bytes());
}

std::vector<uint8_t> make_blob_envelope(uint64_t format_hash, uint64_t digest,
                                        const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> out;
  append_envelope(out, format_hash, digest, payload);
  return out;
}

std::optional<std::vector<uint8_t>> open_blob_envelope(
    const std::vector<uint8_t>& blob, uint64_t format_hash, uint64_t digest) {
  if (!envelope_ok(blob.data(), blob.size(), format_hash, digest))
    return std::nullopt;
  return std::vector<uint8_t>(blob.begin() + kHeaderSize,
                              blob.end() - kTrailerSize);
}

bool ContentStore::valid_kind(const std::string& kind) {
  return !kind.empty() && kind.size() <= 64 && kind != "." && kind != ".." &&
         std::all_of(kind.begin(), kind.end(), [](char c) {
           return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
         });
}

ContentStore::ContentStore(CacheOptions options)
    : options_(std::move(options)) {
  if (options_.dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(options_.dir, ec);
  std::lock_guard<std::mutex> lock(mu_);
  if (lock_pack_locked(LOCK_SH)) lock_fd(fd_, LOCK_UN);
}

ContentStore::~ContentStore() {
  flush();
  if (fd_ >= 0) ::close(fd_);
}

bool ContentStore::lock_pack_locked(int op) {
  const std::string path = options_.dir + "/pack";
  bool reopened = false;
  for (;;) {
    if (fd_ < 0) {
      fd_ = ::open(path.c_str(), O_RDWR | O_APPEND | O_CREAT | O_CLOEXEC,
                   0644);
      // A read-only cache still serves loads; its writes fail and drop.
      if (fd_ < 0) fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
      if (fd_ < 0) return false;
      reopened = true;
    }
    lock_fd(fd_, op);
    struct stat held, named;
    if (::fstat(fd_, &held) == 0 && ::stat(path.c_str(), &named) == 0 &&
        held.st_ino == named.st_ino && held.st_dev == named.st_dev)
      break;
    ::close(fd_);  // another store's rewrite renamed a new pack over it
    fd_ = -1;
  }
  if (reopened) {
    // index_'s offsets belong to the old file; keep this store's recency.
    std::map<Key, Entry> before;
    before.swap(index_);
    scanned_end_ = 0;
    torn_ = false;
    scan_locked();
    for (auto& [key, entry] : index_)
      if (auto it = before.find(key); it != before.end())
        entry.tick = it->second.tick;
  }
  return true;
}

void ContentStore::scan_locked() {
  struct stat st;
  if (::fstat(fd_, &st) != 0) return;
  const uint64_t end = static_cast<uint64_t>(st.st_size);
  // Headers are read through one bounded window; payloads are skipped.
  std::vector<uint8_t> window;
  uint64_t window_off = 0;
  const auto bytes_at = [&](uint64_t off, size_t n) -> const uint8_t* {
    if (off < window_off || off + n > window_off + window.size()) {
      window_off = off;
      window.resize(std::min<uint64_t>(kIoChunk, end - off));
      if (!read_at(fd_, window.data(), window.size(), off)) window.clear();
    }
    return off + n <= window_off + window.size()
               ? window.data() + (off - window_off)
               : nullptr;
  };
  uint64_t off = scanned_end_;
  while (off < end) {
    const uint8_t* p = bytes_at(off, 1);
    const size_t k = p ? p[0] : 0;
    const uint8_t* h = k ? bytes_at(off, 1 + k + kHeaderSize) : nullptr;
    if (!h) break;
    const std::string kind(h + 1, h + 1 + k);
    const uint8_t* env = h + 1 + k;
    const uint64_t framed = 1 + k + kHeaderSize + kTrailerSize;
    const uint64_t size = get_u64(env + 20);
    if (!valid_kind(kind) || std::memcmp(env, kMagic, 4) != 0 ||
        end - off < framed || size > end - off - framed)
      break;  // unframed, or torn by a write that never finished
    Entry& entry = index_[{kind, get_u64(env + 12)}];
    entry.offset = off;
    entry.size = framed + size;
    off += entry.size;
  }
  if (off < end && !torn_) {
    torn_ = true;
    ++counters_.corrupt;
  }
  scanned_end_ = off;
}

void ContentStore::catch_up_locked() {
  if (caught_up_ || fd_ < 0 || torn_) return;
  caught_up_ = true;
  // Another store's rewrite renames a new pack over the one fd_ holds,
  // which then never grows: lock_pack_locked() reopens and rescans it.
  struct stat held, named;
  if (::fstat(fd_, &held) != 0) return;
  const bool replaced =
      ::stat((options_.dir + "/pack").c_str(), &named) == 0 &&
      (named.st_ino != held.st_ino || named.st_dev != held.st_dev);
  if (!replaced && static_cast<uint64_t>(held.st_size) <= scanned_end_) return;
  if (!lock_pack_locked(LOCK_SH)) return;
  scan_locked();
  lock_fd(fd_, LOCK_UN);
}

std::optional<std::vector<uint8_t>> ContentStore::load(const std::string& kind,
                                                       uint64_t format_hash,
                                                       uint64_t digest) {
  if (options_.dir.empty()) return std::nullopt;
  std::lock_guard<std::mutex> lock(mu_);
  const Key key{kind, digest};
  if (!pending_.count(key) && !index_.count(key)) catch_up_locked();
  const size_t framing = 1 + kind.size();
  std::vector<uint8_t> record;
  uint64_t* tick = nullptr;  // of the pending or indexed record, if any
  if (auto p = pending_.find(key); p != pending_.end()) {
    record = p->second.record;
    tick = &p->second.tick;
  } else if (auto e = index_.find(key); e != index_.end()) {
    record.resize(e->second.size);
    if (!read_at(fd_, record.data(), record.size(), e->second.offset))
      record.clear();
    tick = &e->second.tick;
  }
  if (tick && (record.size() < framing ||
               !envelope_ok(record.data() + framing, record.size() - framing,
                            format_hash, digest))) {
    // Truncation, bit flip, or version skew: a fresh store() of the key
    // appends a record that wins at the next open.
    pending_.erase(key);
    index_.erase(key);
    ++counters_.corrupt;
    tick = nullptr;
  }
  if (!tick) {  // absent (an invalid kind is never stored) or corrupt
    ++counters_.misses;
    return std::nullopt;
  }
  *tick = next_tick_++;
  ++counters_.hits;
  return std::vector<uint8_t>(record.begin() + framing + kHeaderSize,
                              record.end() - kTrailerSize);
}

void ContentStore::store(const std::string& kind, uint64_t format_hash,
                         uint64_t digest, std::vector<uint8_t> payload) {
  if (options_.dir.empty() || !valid_kind(kind)) return;
  Pending p;
  p.record.reserve(1 + kind.size() + kHeaderSize + payload.size() +
                   kTrailerSize);
  p.record.push_back(static_cast<uint8_t>(kind.size()));
  p.record.insert(p.record.end(), kind.begin(), kind.end());
  append_envelope(p.record, format_hash, digest, payload);
  std::lock_guard<std::mutex> lock(mu_);
  p.tick = next_tick_++;
  pending_[{kind, digest}] = std::move(p);
}

void ContentStore::mark_corrupt(const std::string& kind, uint64_t digest) {
  if (options_.dir.empty() || !valid_kind(kind)) return;
  std::lock_guard<std::mutex> lock(mu_);
  pending_.erase({kind, digest});
  index_.erase({kind, digest});
  ++counters_.corrupt;
}

void ContentStore::flush() {
  if (options_.dir.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  caught_up_ = false;
  const uint64_t max = options_.max_bytes;
  if (pending_.empty() && !torn_ && (max == 0 || scanned_end_ <= max)) return;
  if (lock_pack_locked(LOCK_EX)) {
    if (!torn_) scan_locked();  // what other stores appended meanwhile
    uint64_t bytes = scanned_end_;
    for (const auto& [key, p] : pending_) bytes += p.record.size();
    if (torn_ || (max > 0 && bytes > max))
      rewrite_locked();
    else
      append_locked();
    lock_fd(fd_, LOCK_UN);
  }
  pending_.clear();  // what did not land is a dropped write
}

void ContentStore::append_locked() {
  // Straight from the pending map, in key order, so two compilers of one
  // program write identical packs.
  std::vector<iovec> iov;
  for (auto it = pending_.begin(); it != pending_.end();) {
    const auto first = it;
    size_t bytes = 0;
    iov.clear();
    for (; it != pending_.end() && iov.size() < IOV_MAX; ++it) {
      iov.push_back({it->second.record.data(), it->second.record.size()});
      bytes += it->second.record.size();
    }
    const ssize_t n = ::writev(fd_, iov.data(), static_cast<int>(iov.size()));
    if (n < 0 || static_cast<size_t>(n) != bytes) {
      torn_ = n > 0;  // part of a record landed: the next flush rewrites
      return;
    }
    for (auto r = first; r != it; ++r) {
      index_[r->first] = {scanned_end_, r->second.record.size(), r->second.tick};
      scanned_end_ += r->second.record.size();
      ++counters_.writes;
    }
  }
}

void ContentStore::rewrite_locked() {
  std::vector<Kept> used, unused;
  uint64_t all = 0;
  for (const auto& [key, e] : index_)
    if (!pending_.count(key)) {
      (e.tick ? used : unused).push_back({&key, e, nullptr});
      all += e.size;
    }
  for (const auto& [key, p] : pending_) {
    used.push_back({&key, {0, p.record.size(), p.tick}, &p.record});
    all += p.record.size();
  }
  std::sort(used.begin(), used.end(), [](const Kept& a, const Kept& b) {
    return a.entry.tick > b.entry.tick;
  });
  std::sort(unused.begin(), unused.end(), [](const Kept& a, const Kept& b) {
    return a.entry.offset > b.entry.offset;
  });
  // When everything fits (a torn tail) nothing is evicted; otherwise the
  // max_bytes/2 limit on unused records leaves headroom, so a full pack
  // is not rewritten on every compile.
  const uint64_t max = options_.max_bytes;
  std::vector<Kept> kept;
  uint64_t total = 0;
  for (const auto& [from, limit] : {std::pair{&used, max}, {&unused, max / 2}})
    for (const Kept& k : *from) {
      if (max > 0 && all > max && total + k.entry.size > limit) break;
      total += k.entry.size;
      kept.push_back(k);
    }
  std::reverse(kept.begin(), kept.end());  // oldest first: place is age
  if (!replace_pack_locked(kept)) return;
  counters_.evictions += used.size() + unused.size() - kept.size();
  for (const Kept& k : kept) counters_.writes += k.pending ? 1 : 0;
}

bool ContentStore::replace_pack_locked(const std::vector<Kept>& kept) {
  std::string tmp = options_.dir + "/pack.XXXXXX";
  const int fd = ::mkostemp(tmp.data(), O_CLOEXEC);
  if (fd < 0) return false;
  ::fchmod(fd, 0644);
  lock_fd(fd, LOCK_EX);  // nobody appends before index_ describes it
  std::map<Key, Entry> index;
  std::vector<uint8_t> out, copy;
  uint64_t off = 0;
  bool ok = true;
  for (const Kept& k : kept) {
    const std::vector<uint8_t>* record = k.pending;
    if (!record) {
      // Copied records are checked: a rewrite never carries damage over.
      const size_t framing = 1 + k.key->first.size();
      copy.resize(k.entry.size);
      if (!read_at(fd_, copy.data(), copy.size(), k.entry.offset) ||
          !envelope_ok(copy.data() + framing, copy.size() - framing,
                       get_u64(copy.data() + framing + 4), k.key->second)) {
        ++counters_.corrupt;
        continue;
      }
      record = &copy;
    }
    if (!out.empty() && out.size() + record->size() > kIoChunk) {
      if (!(ok = write_all(fd, out))) break;
      out.clear();
    }
    out.insert(out.end(), record->begin(), record->end());
    index[*k.key] = {off, record->size(), k.entry.tick};
    off += record->size();
  }
  const std::string pack = options_.dir + "/pack";
  if (!ok || !write_all(fd, out) || ::rename(tmp.c_str(), pack.c_str()) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  ::fcntl(fd, F_SETFL, O_APPEND);
  ::close(fd_);
  fd_ = fd;
  index_ = std::move(index);
  scanned_end_ = off;
  torn_ = false;
  return true;
}

void ContentStore::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  pending_.clear();
  index_.clear();
  if (options_.dir.empty() || !lock_pack_locked(LOCK_EX)) return;
  replace_pack_locked({});
  index_.clear();
  lock_fd(fd_, LOCK_UN);
}

ContentStore::Counters ContentStore::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

size_t ContentStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = index_.size();
  for (const auto& [key, p] : pending_) n += index_.count(key) ? 0 : 1;
  return n;
}

}  // namespace fortd
