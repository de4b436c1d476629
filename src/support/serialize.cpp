#include "support/serialize.hpp"

namespace fortd {

uint64_t fnv1a(const uint8_t* data, size_t size, uint64_t seed) {
  uint64_t h = seed;
  for (size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return h;
}

void BinaryWriter::u64(uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<uint8_t>(v));
}

void BinaryWriter::i64(int64_t v) {
  // Zigzag: sign bit to the bottom so small magnitudes stay short.
  u64((static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63));
}

void BinaryWriter::f64(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<uint8_t>(bits >> (i * 8)));
}

void BinaryWriter::str(const std::string& s) {
  u64(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

bool BinaryReader::take(void* out, size_t n) {
  if (!ok_ || size_ - pos_ < n) {
    ok_ = false;
    return false;
  }
  std::memcpy(out, data_ + pos_, n);
  pos_ += n;
  return true;
}

uint8_t BinaryReader::u8() {
  uint8_t v = 0;
  take(&v, 1);
  return ok_ ? v : 0;
}

uint64_t BinaryReader::u64() {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    uint8_t byte = 0;
    if (!take(&byte, 1)) return 0;
    if (shift >= 64) {  // overlong encoding: corrupt
      ok_ = false;
      return 0;
    }
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if (!(byte & 0x80)) return v;
    shift += 7;
  }
}

int64_t BinaryReader::i64() {
  uint64_t z = u64();
  return static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

double BinaryReader::f64() {
  uint8_t raw[8];
  if (!take(raw, 8)) return 0.0;
  uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) bits |= static_cast<uint64_t>(raw[i]) << (i * 8);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string BinaryReader::str() {
  uint64_t n = u64();
  if (!ok_ || size_ - pos_ < n) {
    ok_ = false;
    return {};
  }
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

size_t BinaryReader::count() {
  uint64_t n = u64();
  if (!ok_ || n > size_ - pos_) {
    ok_ = false;
    return 0;
  }
  return static_cast<size_t>(n);
}

void write_str_vec(BinaryWriter& w, const std::vector<std::string>& v) {
  w.count(v.size());
  for (const std::string& s : v) w.str(s);
}

std::vector<std::string> read_str_vec(BinaryReader& r) {
  std::vector<std::string> v(r.count());
  for (std::string& s : v) s = r.str();
  return v;
}

void write_str_set(BinaryWriter& w, const std::set<std::string>& s) {
  w.count(s.size());
  for (const std::string& v : s) w.str(v);
}

std::set<std::string> read_str_set(BinaryReader& r) {
  std::set<std::string> s;
  size_t n = r.count();
  for (size_t i = 0; i < n; ++i) s.insert(r.str());
  return s;
}

}  // namespace fortd
