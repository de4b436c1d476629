// Length-prefixed frame codec for the compile-service protocol.
//
// A frame is a LEB128 varint byte length followed by that many payload
// bytes; the payload itself is a BinaryWriter-encoded protocol message
// (remote/protocol.hpp). FrameDecoder is incremental — feed() it
// arbitrary chunks straight off a socket and next() yields complete
// frames — and defensive in the BinaryReader mold: an implausible or
// oversized length sets a sticky fail bit (the connection is garbage and
// must be dropped) instead of throwing or over-allocating.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace fortd::net {

/// Hard ceiling on one frame's payload: far above any artifact blob the
/// compiler produces, far below an allocation that could hurt. A length
/// beyond this is corruption (or a hostile peer) by construction.
constexpr uint64_t kMaxFramePayload = 64ull << 20;  // 64 MiB

/// Append one frame (varint length + payload bytes) to `out`. A payload
/// above kMaxFramePayload is refused (false, `out` untouched): sending it
/// would only trip the receiver's decoder and kill the connection, so the
/// caller must degrade (skip the PUT, answer a GET with a miss) instead.
bool encode_frame(std::vector<uint8_t>& out, const std::vector<uint8_t>& payload);

class FrameDecoder {
 public:
  /// Buffer `n` more wire bytes. No-op once failed.
  void feed(const uint8_t* data, size_t n);
  void feed(const std::string& bytes) {
    feed(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
  }

  /// The next complete frame payload, or nullopt when more bytes are
  /// needed (or the decoder has failed).
  std::optional<std::vector<uint8_t>> next();

  /// Sticky: set by an overlong varint or a length above kMaxFramePayload.
  bool failed() const { return failed_; }

  /// Bytes buffered but not yet consumed (diagnostic).
  size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::vector<uint8_t> buf_;
  size_t pos_ = 0;  // consumed prefix, compacted opportunistically
  bool failed_ = false;
};

}  // namespace fortd::net
