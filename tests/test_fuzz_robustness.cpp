// Seeded-PRNG fuzz of every decoder that consumes untrusted bytes:
// BinaryReader, the FDCA blob envelope, the frame decoder, and the
// wire-protocol message codec. The contract under fuzz
// is uniform — return nullopt / fail-bit, never throw, never hang, never
// over-allocate — and mutated valid inputs must never decode to the
// *wrong* payload (checksums catch the flip or the decode fails).
//
// All randomness is std::mt19937_64 under fixed seeds, so a failure
// reproduces exactly.
#include <gtest/gtest.h>

#include <random>

#include "driver/compilation_db.hpp"
#include "net/frame.hpp"
#include "remote/protocol.hpp"
#include "support/serialize.hpp"

namespace fortd {
namespace {

std::vector<uint8_t> random_bytes(std::mt19937_64& rng, size_t n) {
  std::vector<uint8_t> v(n);
  for (auto& b : v) b = static_cast<uint8_t>(rng());
  return v;
}

/// A structurally valid envelope with a pseudorandom payload.
std::vector<uint8_t> valid_envelope(std::mt19937_64& rng, uint64_t format_hash,
                                    uint64_t digest) {
  std::uniform_int_distribution<size_t> len(0, 600);
  return make_blob_envelope(format_hash, digest, random_bytes(rng, len(rng)));
}

/// Mutate `bytes` one of three ways: truncate, flip a bit, or extend.
std::vector<uint8_t> mutate(std::mt19937_64& rng, std::vector<uint8_t> bytes) {
  switch (rng() % 3) {
    case 0: {  // truncate (possibly to empty)
      if (!bytes.empty()) bytes.resize(rng() % bytes.size());
      break;
    }
    case 1: {  // flip one bit
      if (!bytes.empty())
        bytes[rng() % bytes.size()] ^= static_cast<uint8_t>(1u << (rng() % 8));
      break;
    }
    default: {  // append garbage
      for (size_t i = 0, n = 1 + rng() % 16; i < n; ++i)
        bytes.push_back(static_cast<uint8_t>(rng()));
      break;
    }
  }
  return bytes;
}

TEST(FuzzRobustness, BinaryReaderNeverThrowsOnGarbage) {
  std::mt19937_64 rng(0xf0021);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<uint8_t> bytes = random_bytes(rng, rng() % 64);
    BinaryReader r(bytes);
    // A pseudorandom op sequence; every op must be total.
    for (int op = 0; op < 12; ++op) {
      switch (rng() % 4) {
        case 0: (void)r.u64(); break;
        case 1: (void)r.str(); break;
        case 2: (void)r.i64(); break;
        default: (void)r.f64(); break;
      }
    }
    (void)r.ok();
    (void)r.at_end();
  }
}

TEST(FuzzRobustness, EnvelopeDecoderRejectsGarbageQuietly) {
  std::mt19937_64 rng(0xf0022);
  for (int iter = 0; iter < 1500; ++iter) {
    std::vector<uint8_t> bytes = random_bytes(rng, rng() % 200);
    (void)open_blob_envelope(bytes, rng(), rng());
  }
}

TEST(FuzzRobustness, MutatedEnvelopesNeverDecodeWrong) {
  std::mt19937_64 rng(0xf0023);
  const uint64_t fh = 0x1234, digest = 0x5678;
  int rejected = 0, survived = 0;
  for (int iter = 0; iter < 1500; ++iter) {
    std::vector<uint8_t> good = valid_envelope(rng, fh, digest);
    auto expect = open_blob_envelope(good, fh, digest);
    ASSERT_TRUE(expect.has_value());

    std::vector<uint8_t> bad = mutate(rng, good);
    auto got = open_blob_envelope(bad, fh, digest);
    if (bad == good) continue;  // mutation was a no-op this round
    if (!got.has_value()) {
      ++rejected;
    } else {
      // The only mutations an envelope may survive are ones its checksum
      // cannot see — and there are none: the checksum covers every byte
      // before it, and a flip inside the 8-byte trailer itself must also
      // reject. So a surviving decode must return the exact original
      // payload.
      ++survived;
      EXPECT_EQ(*got, *expect) << "iteration " << iter;
    }
  }
  EXPECT_GT(rejected, 1000) << "mutations should overwhelmingly be caught";
}

TEST(FuzzRobustness, FrameDecoderSurvivesRandomChunkSplits) {
  std::mt19937_64 rng(0xf0025);
  for (int iter = 0; iter < 300; ++iter) {
    // A mix of valid frames and raw garbage, delivered in random chunks.
    std::vector<uint8_t> wire;
    std::vector<std::vector<uint8_t>> sent;
    const bool poison = rng() % 2 == 0;
    for (size_t i = 0, n = 1 + rng() % 4; i < n; ++i) {
      sent.push_back(random_bytes(rng, rng() % 100));
      net::encode_frame(wire, sent.back());
    }
    if (poison) {
      auto junk = random_bytes(rng, 1 + rng() % 40);
      wire.insert(wire.end(), junk.begin(), junk.end());
    }

    net::FrameDecoder dec;
    std::vector<std::vector<uint8_t>> got;
    size_t pos = 0;
    while (pos < wire.size()) {
      size_t chunk = std::min<size_t>(1 + rng() % 16, wire.size() - pos);
      dec.feed(wire.data() + pos, chunk);
      pos += chunk;
      while (auto f = dec.next()) got.push_back(*f);
      if (dec.failed()) break;
    }
    // The valid frames occupy a prefix of the stream, so they must all
    // come out first and intact. Trailing junk may happen to parse as
    // further frames (it is indistinguishable from data) or trip the
    // fail bit — either is fine; a clean stream must yield exactly the
    // frames sent.
    if (poison) {
      ASSERT_GE(got.size(), sent.size()) << "iteration " << iter;
    } else {
      ASSERT_EQ(got.size(), sent.size()) << "iteration " << iter;
    }
    for (size_t i = 0; i < sent.size(); ++i)
      EXPECT_EQ(got[i], sent[i]) << "iteration " << iter;
  }
}

TEST(FuzzRobustness, WireMessageDecoderIsTotal) {
  std::mt19937_64 rng(0xf0026);
  for (int iter = 0; iter < 2000; ++iter)
    (void)remote::decode_message(random_bytes(rng, rng() % 120));
  // Mutations of every valid message type: decode to nullopt or to a
  // well-formed message — never throw.
  using remote::MsgType;
  const MsgType types[] = {
      MsgType::Hello,   MsgType::HelloOk,      MsgType::HelloReject,
      MsgType::Error,   MsgType::Compile,      MsgType::CompileReply,
      MsgType::Drain,   MsgType::DrainOk,      MsgType::Metrics,
      MsgType::MetricsOk};
  for (int iter = 0; iter < 1000; ++iter) {
    remote::WireMessage m;
    m.type = types[rng() % std::size(types)];
    m.format_hash = rng();
    m.text = "reason";
    m.copts.n_procs = static_cast<uint32_t>(rng());
    m.creply.spmd = "spmd";
    (void)remote::decode_message(mutate(rng, remote::encode_message(m)));
  }
}

}  // namespace
}  // namespace fortd
