// In-repo LZ-style blob compression for the persistent compilation
// database (see driver/compilation_db.hpp).
//
// Artifact payloads are varint-packed but their bodies repeat names
// heavily (procedure/array/decomposition identifiers recur in every
// section), so a small LZSS-style codec with a 64 KiB window recovers
// most of that redundancy without any external dependency.
//
// Stream format (all integers are LEB128 varints):
//
//   [u8 mode] mode 0 = stored, 1 = LZ
//   [varint raw_size]
//   stored: raw_size raw bytes
//   LZ:     tokens until raw_size bytes have been produced —
//     token byte t < 0x80: literal run of t+1 bytes (1..128) follows
//     token byte t >= 0x80: match of length (t & 0x7f) + kMinMatch
//                           (4..131), followed by a varint distance
//                           (1..65535) back into the output
//
// compress_bytes never fails (incompressible input falls back to stored
// mode, costing 2-6 bytes of framing). decompress_bytes is totally
// defensive: any malformed stream — bad mode, implausible size, distance
// past the start, output overrun, trailing garbage — returns nullopt,
// never throws, never over-allocates, and always terminates.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace fortd {

/// Bump when the compressed-stream layout changes; mixed into artifact
/// format hashes (next to kSerializeFormatVersion) so blobs written by a
/// different codec version quarantine instead of misdecoding.
constexpr uint32_t kCompressFormatVersion = 1;

/// Compress `raw` (stored mode when LZ does not help). Deterministic:
/// identical input yields identical output, so blob byte-identity
/// comparisons across compilers remain valid.
std::vector<uint8_t> compress_bytes(const std::vector<uint8_t>& raw);

/// Inverse of compress_bytes; nullopt on any malformed stream.
std::optional<std::vector<uint8_t>> decompress_bytes(const uint8_t* data,
                                                     size_t size);
inline std::optional<std::vector<uint8_t>> decompress_bytes(
    const std::vector<uint8_t>& bytes) {
  return decompress_bytes(bytes.data(), bytes.size());
}

}  // namespace fortd
