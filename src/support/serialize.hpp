// Versioned binary serialization primitives for on-disk compiler
// artifacts (see driver/compilation_db.hpp) and for every cache digest.
//
// BinaryWriter appends varint-coded integers (zigzag for signed),
// length-prefixed strings, bit-cast doubles, and counted containers to a
// byte buffer. A digest is fnv1a over the bytes the artifact codecs write
// (with source positions switched off), so every count, presence flag and
// field an artifact carries is keyed. BinaryReader is the mirror image
// with *stream semantics*:
// a read past the end (or an implausible element count) sets a sticky
// fail bit instead of throwing, and every subsequent read returns a zero
// value. Deserializers therefore read unconditionally and check `ok() &&
// at_end()` once at the end — malformed payloads yield nullopt at the
// artifact boundary, never an exception or an over-allocation.
#pragma once

#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <vector>

namespace fortd {

/// Bump when any artifact payload layout changes; stamped (mixed with the
/// artifact kind) into every record header so stale caches read as misses.
/// v2: FDCA envelope payloads were LZ-compressed. The compression went
///     with the per-artifact files: the pack (driver/compilation_db.hpp)
///     stores payloads as written, in a file no older store wrote, so the
///     version did not move.
/// v3: CommEvent carries its originating SourceLoc (line, col) so cached
///     SPMD bodies keep source-mapped diagnostics.
constexpr uint32_t kSerializeFormatVersion = 3;

/// FNV-1a over a byte range — the checksum used by artifact envelopes
/// and the one hash behind every cache digest.
uint64_t fnv1a(const uint8_t* data, size_t size, uint64_t seed = 1469598103934665603ull);
inline uint64_t fnv1a(const std::vector<uint8_t>& bytes) {
  return fnv1a(bytes.data(), bytes.size());
}

class BinaryWriter {
public:
  /// `positions == false` makes write_loc (frontend/ast_serialize.hpp)
  /// write nothing. Digests switch positions off: cached SPMD code holds
  /// positions inside other procedures, so hashing them would turn a
  /// moved callee into a recompiled caller.
  explicit BinaryWriter(bool positions = true) : positions_(positions) {}
  bool positions() const { return positions_; }

  void u8(uint8_t v) { buf_.push_back(v); }
  void u64(uint64_t v);            // LEB128 varint
  void i64(int64_t v);             // zigzag + varint
  void boolean(bool v) { u8(v ? 1 : 0); }
  void f64(double v);              // 8 bytes, little-endian bit pattern
  void str(const std::string& s);

  /// Length prefix for a container; elements follow via the other writers.
  void count(size_t n) { u64(static_cast<uint64_t>(n)); }

  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::vector<uint8_t> take() { return std::move(buf_); }

private:
  std::vector<uint8_t> buf_;
  bool positions_;
};

class BinaryReader {
public:
  BinaryReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit BinaryReader(const std::vector<uint8_t>& bytes)
      : BinaryReader(bytes.data(), bytes.size()) {}

  uint8_t u8();
  uint64_t u64();
  int64_t i64();
  bool boolean() { return u8() != 0; }
  double f64();
  std::string str();

  /// Container length prefix. Fails (returning 0) when the count exceeds
  /// the remaining bytes — every element costs at least one byte, so a
  /// larger count can only come from corruption and would otherwise cause
  /// a pathological reserve() loop downstream.
  size_t count();

  bool ok() const { return ok_; }
  /// Sticky failure, also settable by deserializers on semantic errors
  /// (e.g. an out-of-range enum value).
  void fail() { ok_ = false; }
  bool at_end() const { return pos_ == size_; }
  size_t remaining() const { return size_ - pos_; }

private:
  bool take(void* out, size_t n);

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

void write_str_vec(BinaryWriter& w, const std::vector<std::string>& v);
std::vector<std::string> read_str_vec(BinaryReader& r);
void write_str_set(BinaryWriter& w, const std::set<std::string>& s);
std::set<std::string> read_str_set(BinaryReader& r);

}  // namespace fortd
